// Recovery edge cases of the durable drive loop (DESIGN.md §3k):
// empty-WAL recovery, recovery from an abandoned partial run (the
// in-process stand-in for a kill), double-recover idempotence, stray
// files a recovery must ignore, and logs no drive of the trace could have
// written (wrong count, position or content), which it must refuse.
// recover_check covers the real kill-a-process matrix; these tests keep
// the edge cases in the fast unit tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "batch_reference.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"
#include "journal/journal.hpp"
#include "journal/wire.hpp"
#include "ledger/codec.hpp"
#include "ledger/market.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"
#include "wal/durable/durable.hpp"
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

stream::StreamConfig stream_config() {
  stream::StreamConfig config;
  config.engine = engine_config();
  config.triggers.bids = kBatch;
  config.threads = 1;
  config.drain_epochs = kDrainEpochs;
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

DurableOptions durable_options(const std::string& dir, bool recover) {
  DurableOptions opts;
  opts.wal_dir = dir;
  opts.recover = recover;
  opts.sync = false;
  opts.fingerprint = kFp;
  return opts;
}

engine::DriveOutcome run_durable(const DurableOptions& opts) {
  stream::StreamingMarket market(stream_config());
  return stream::drive_trace_stream(market, driver_config(), &opts).drive;
}

/// Logs trace bids [first, last) of the run's workload to `writer`, each
/// on the segment of the shard it routes to, as the engine would.
/// Positions past the trace's end wrap to its start.
void log_trace_bids(WalWriter& writer, std::size_t first, std::size_t last) {
  const engine::EngineConfig config = engine_config();
  const engine::ShardRouter router(config.router);
  const engine::TraceStream stream = engine::make_trace_stream(driver_config(), config);
  const std::size_t n_req = stream.snapshot.requests.size();
  for (std::size_t i = first; i < last; ++i) {
    const std::size_t pick = stream.order[i % stream.order.size()];
    if (pick < n_req) {
      const auction::Request& r = stream.snapshot.requests[pick];
      (void)writer.append_bid(router.route(r).shard + 1, false, ledger::encode_request(r));
    } else {
      const auction::Offer& o = stream.snapshot.offers[pick - n_req];
      (void)writer.append_bid(router.route(o).shard + 1, true, ledger::encode_offer(o));
    }
  }
}

std::size_t trace_size() {
  return engine::make_trace_stream(driver_config(), engine_config()).order.size();
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
  const engine::DriveOutcome recovered = run_durable(durable_options(dir, true));
  expect_outcomes_identical(recovered, run_plain());
}

TEST(Recovery, CompletedRunRecoversIdempotently) {
  const std::string dir = fresh_dir("rec_complete");
  const DurableOptions fresh = durable_options(dir, false);
  const engine::DriveOutcome first = run_durable(fresh);
  expect_outcomes_identical(first, run_plain());

  DurableOptions recover = fresh;
  recover.recover = true;
  // Twice: recovery of a complete WAL must not perturb it for the next.
  expect_outcomes_identical(run_durable(recover), first);
  expect_outcomes_identical(run_durable(recover), first);
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
  const engine::DriveOutcome recovered = run_durable(durable_options(dir, true));
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
  const DurableOptions fresh = durable_options(dir, false);
  stream::StreamDriveOutcome durable;
  {
    stream::StreamingMarket market(config);
    durable = stream::drive_trace_stream(market, driver_config(), &fresh);
  }
  EXPECT_EQ(durable.micro_epochs, plain.micro_epochs);
  EXPECT_EQ(durable.drain_epochs, plain.drain_epochs);
  expect_outcomes_identical(durable.drive, plain.drive);

  // Recover the completed stream WAL into a fresh market: same outcome.
  const DurableOptions recover = durable_options(dir, true);
  stream::StreamingMarket market(config);
  const stream::StreamDriveOutcome recovered =
      stream::drive_trace_stream(market, driver_config(), &recover);
  EXPECT_EQ(recovered.micro_epochs, plain.micro_epochs);
  expect_outcomes_identical(recovered.drive, plain.drive);
}

TEST(Recovery, FingerprintMismatchRefused) {
  const std::string dir = fresh_dir("rec_fp");
  (void)run_durable(durable_options(dir, false));
  DurableOptions other = durable_options(dir, true);
  other.fingerprint = kFp + 1;
  EXPECT_THROW(run_durable(other), journal::wire::decode_error);
}

TEST(Recovery, StraySnapshotFilesAreIgnored) {
  // Older builds wrote snapshot-<N>.dcs files (and .tmp leftovers) next to
  // the segments; recovery replays the WAL and never opens them.
  const std::string dir = fresh_dir("rec_stray");
  const engine::DriveOutcome first = run_durable(durable_options(dir, false));
  for (const char* name : {"snapshot-2.dcs", "snapshot-4.dcs.tmp"}) {
    std::ofstream(fs::path(dir) / name, std::ios::binary) << "DCS1 not a snapshot";
  }
  expect_outcomes_identical(run_durable(durable_options(dir, true)), first);
}

TEST(Recovery, MoreBidsThanTheTraceRefused) {
  // Every trace bid, one bid too many, then the flush.
  const std::string dir = fresh_dir("rec_extra_bid");
  {
    const auto writer = WalWriter::create({dir, 2, kFp, false});
    log_trace_bids(*writer, 0, trace_size() + 1);
    (void)writer->append_flush();
  }
  EXPECT_THROW(run_durable(durable_options(dir, true)), journal::wire::decode_error);
}

TEST(Recovery, BidAfterTheFlushRefused) {
  // A complete run's log with one more bid appended after its flush.
  const std::string dir = fresh_dir("rec_bid_after_flush");
  (void)run_durable(durable_options(dir, false));
  {
    const WalContents contents = load_wal(dir, 2, kFp);
    const auto writer =
        WalWriter::attach({dir, 2, kFp, false}, contents.valid_bytes, contents.next_input_seq);
    log_trace_bids(*writer, 0, 1);
  }
  EXPECT_THROW(run_durable(durable_options(dir, true)), journal::wire::decode_error);
}

TEST(Recovery, FlushBeforeTheTraceEndsRefused) {
  // A drive flushes only after its last bid; neither an early flush nor a
  // second one can come from a drive of this trace.
  const std::string early = fresh_dir("rec_early_flush");
  {
    const auto writer = WalWriter::create({early, 2, kFp, false});
    log_trace_bids(*writer, 0, 5);
    (void)writer->append_flush();
  }
  EXPECT_THROW(run_durable(durable_options(early, true)), journal::wire::decode_error);

  const std::string twice = fresh_dir("rec_second_flush");
  {
    const auto writer = WalWriter::create({twice, 2, kFp, false});
    log_trace_bids(*writer, 0, trace_size());
    (void)writer->append_flush();
    (void)writer->append_flush();
  }
  EXPECT_THROW(run_durable(durable_options(twice, true)), journal::wire::decode_error);
}

TEST(Recovery, ForeignBidContentRefused) {
  // The trace's bid count and a flush, so count and position checks pass,
  // but every bid is a copy of trace bid 0: a log no drive of this trace
  // writes, which would otherwise recover to a different report.
  const std::string dir = fresh_dir("rec_foreign_bid");
  {
    const auto writer = WalWriter::create({dir, 2, kFp, false});
    const std::size_t bids = trace_size();
    for (std::size_t n = 0; n < bids; ++n) log_trace_bids(*writer, 0, 1);
    (void)writer->append_flush();
  }
  EXPECT_THROW(run_durable(durable_options(dir, true)), journal::wire::decode_error);
}

}  // namespace
}  // namespace decloud::wal
