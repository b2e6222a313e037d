// Recovery edge cases of the durable drive loop (DESIGN.md §3k):
// empty-WAL recovery, snapshot-only recovery (empty tail), recovery from
// an abandoned partial run (the in-process stand-in for a kill), and
// double-recover idempotence.  recover_check covers the real
// kill-a-process matrix; these tests keep the edge cases in the fast
// unit tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "batch_reference.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"
#include "journal/journal.hpp"
#include "journal/wire.hpp"
#include "ledger/market.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"
#include "wal/durable/durable.hpp"
#include "wal/snapshot.hpp"
#include "wal/wal.hpp"

namespace decloud::wal {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kFp = 0xC0FFEEULL;

std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

engine::EngineConfig engine_config() {
  engine::EngineConfig config;
  config.router.num_shards = 2;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 8;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  // Durable mode requires the cross-round index cache off.
  config.market.reuse_candidate_index = false;
  return config;
}

constexpr std::size_t kBatch = 20;       // bid-count trigger == batch size
constexpr std::size_t kDrainEpochs = 8;

engine::TraceDriverConfig driver_config() {
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = 40;
  driver.workload.num_offers = 20;
  driver.located_fraction = 0.8;
  driver.seed = kSeed;
  return driver;
}

stream::StreamConfig stream_config(std::size_t drain_epochs = kDrainEpochs) {
  stream::StreamConfig config;
  config.engine = engine_config();
  config.triggers.bids = kBatch;
  config.threads = 1;
  config.drain_epochs = drain_epochs;
  return config;
}

void expect_outcomes_identical(const engine::DriveOutcome& a, const engine::DriveOutcome& b) {
  EXPECT_EQ(a.bids_generated, b.bids_generated);
  EXPECT_EQ(a.bids_admitted, b.bids_admitted);
  EXPECT_EQ(a.bids_rejected, b.bids_rejected);
  // summary_json is the canonical byte-exact serialization (exact doubles
  // included) — the same string the determinism suites compare.
  EXPECT_EQ(a.report.summary_json(), b.report.summary_json());
}

engine::DriveOutcome run_durable(const DurableOptions& opts,
                                 std::size_t drain_epochs = kDrainEpochs) {
  stream::StreamingMarket market(stream_config(drain_epochs));
  return stream::drive_trace_stream(market, driver_config(), &opts).drive;
}

/// The uninterrupted, WAL-less batch reference run.
engine::DriveOutcome run_plain() {
  engine::MarketEngine engine(engine_config());
  engine::EpochScheduler scheduler(engine, 1);
  return test::drive_batch(engine, scheduler, driver_config(), kBatch, kDrainEpochs);
}

TEST(Recovery, EmptyWalRecoversToFreshRun) {
  const std::string dir = fresh_dir("rec_empty");
  // A process that died right after creating the WAL left headers only.
  { const auto writer = WalWriter::create({dir, 2, kFp, false}); }
  const engine::DriveOutcome recovered =
      run_durable({dir, /*snapshot_every=*/0, /*recover=*/true, /*sync=*/false, kFp});
  expect_outcomes_identical(recovered, run_plain());
}

TEST(Recovery, CompletedRunRecoversIdempotently) {
  const std::string dir = fresh_dir("rec_complete");
  const DurableOptions fresh{dir, /*snapshot_every=*/2, /*recover=*/false, /*sync=*/false, kFp};
  const engine::DriveOutcome first = run_durable(fresh);
  expect_outcomes_identical(first, run_plain());

  DurableOptions recover = fresh;
  recover.recover = true;
  // Twice: recovery of a complete WAL must not perturb it for the next.
  expect_outcomes_identical(run_durable(recover), first);
  expect_outcomes_identical(run_durable(recover), first);
}

TEST(Recovery, SnapshotOnlyEmptyTail) {
  // snapshot_every=1 makes the LAST close point's snapshot — taken after
  // the flush, which it records — cover the entire input sequence:
  // recovery restores it and replays nothing.
  const std::string dir = fresh_dir("rec_snaponly");
  // No drain epochs after the last snapshot.
  const engine::DriveOutcome first = run_durable({dir, /*snapshot_every=*/1, false, false, kFp}, 0);
  const std::optional<std::string> latest = find_latest_snapshot(dir);
  ASSERT_TRUE(latest.has_value());
  const SnapshotFile snap = read_snapshot(*latest, kFp);
  EXPECT_EQ(load_wal(dir, 2, kFp).next_input_seq,
            [&] {  // watermark == next_input_seq: nothing left to replay
              ByteReader r(snap.payload);
              return journal::wire::read_u64(r);
            }());
  const engine::DriveOutcome recovered = run_durable({dir, 1, true, false, kFp}, 0);
  expect_outcomes_identical(recovered, first);
}

TEST(Recovery, AbandonedPartialRunRecovers) {
  // In-process kill stand-in: drive part of the workload with a WAL
  // attached, then abandon the market (state dies with it, the WAL
  // survives) and recover into a FRESH market.
  const std::string dir = fresh_dir("rec_partial");
  {
    stream::StreamingMarket market(stream_config());
    const auto writer = WalWriter::create({dir, 2, kFp, false});
    market.market_engine().set_wal_writer(writer.get());
    market.set_wal_writer(writer.get());
    const engine::TraceStream stream =
        engine::make_trace_stream(driver_config(), market.config().engine);
    const std::size_t n_req = stream.snapshot.requests.size();
    // One full batch (closed by the bid-count trigger), then half a
    // batch, then "die".
    for (std::size_t i = 0; i < 30 && i < stream.order.size(); ++i) {
      const std::size_t pick = stream.order[i];
      if (pick < n_req) {
        (void)market.submit(stream.snapshot.requests[pick]);
      } else {
        (void)market.submit(stream.snapshot.offers[pick - n_req]);
      }
    }
    EXPECT_EQ(market.micro_epochs(), 1u);
    market.market_engine().set_wal_writer(nullptr);
    market.set_wal_writer(nullptr);
  }
  const engine::DriveOutcome recovered =
      run_durable({dir, /*snapshot_every=*/0, /*recover=*/true, /*sync=*/false, kFp});
  expect_outcomes_identical(recovered, run_plain());
}

TEST(Recovery, StreamDurableMatchesPlainStream) {
  const std::string dir = fresh_dir("rec_stream");
  stream::StreamConfig config = stream_config();
  config.triggers.bids = 15;  // unaligned with any batch: stream vs stream

  stream::StreamDriveOutcome plain;
  {
    stream::StreamingMarket market(config);
    plain = stream::drive_trace_stream(market, driver_config());
  }
  const DurableOptions fresh{dir, /*snapshot_every=*/1, false, false, kFp};
  stream::StreamDriveOutcome durable;
  {
    stream::StreamingMarket market(config);
    durable = stream::drive_trace_stream(market, driver_config(), &fresh);
  }
  EXPECT_EQ(durable.micro_epochs, plain.micro_epochs);
  EXPECT_EQ(durable.drain_epochs, plain.drain_epochs);
  expect_outcomes_identical(durable.drive, plain.drive);

  // Recover the completed stream WAL into a fresh market: same outcome.
  const DurableOptions recover{dir, 1, true, false, kFp};
  stream::StreamingMarket market(config);
  const stream::StreamDriveOutcome recovered =
      stream::drive_trace_stream(market, driver_config(), &recover);
  EXPECT_EQ(recovered.micro_epochs, plain.micro_epochs);
  expect_outcomes_identical(recovered.drive, plain.drive);
}

TEST(Recovery, FingerprintMismatchRefused) {
  const std::string dir = fresh_dir("rec_fp");
  (void)run_durable({dir, 0, false, false, kFp});
  EXPECT_THROW(run_durable({dir, 0, true, false, kFp + 1}), journal::wire::decode_error);
}

}  // namespace
}  // namespace decloud::wal
