// The continuous market's headline contract: the batch submit-then-tick
// loop (tests/batch_reference.hpp) is the drive loop's reference oracle.
// A stream whose micro-epoch triggers fire on the batch epoch boundaries
// must produce a BYTE-identical EngineReport summary to the batch run —
// same trace, same shard layout — at 1, 2 and hardware scheduler
// threads, with and without an active fault plan.
// summary_json prints every double %.17g, so equality here is bit
// equality of every welfare/settlement sum in every shard.
#include <gtest/gtest.h>

#include <string>

#include "batch_reference.hpp"
#include "common/thread_pool.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"
#include "fault/fault.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"

namespace decloud::stream {
namespace {

constexpr std::size_t kBatch = 16;  // batch size == micro-epoch bid trigger

engine::EngineConfig engine_config(std::size_t shards, const char* fault_plan) {
  engine::EngineConfig config;
  config.router.num_shards = shards;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 6;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  config.market.consensus.max_remine_attempts = 1;
  if (fault_plan != nullptr) {
    config.fault_plan = fault::FaultPlan::parse(fault_plan);
    config.fault_seed = 3;
  }
  return config;
}

constexpr std::size_t kRequests = 60;  // 90 bids: a short final batch

engine::TraceDriverConfig driver_config(std::size_t requests = kRequests) {
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = requests;
  driver.workload.num_offers = requests / 2;
  driver.located_fraction = 0.8;
  driver.seed = 7;
  return driver;
}

std::string batch_summary(std::size_t shards, std::size_t threads, const char* fault_plan,
                          std::size_t requests = kRequests) {
  engine::MarketEngine engine(engine_config(shards, fault_plan));
  engine::EpochScheduler scheduler(engine, threads);
  return test::drive_batch(engine, scheduler, driver_config(requests), kBatch)
      .report.summary_json();
}

StreamDriveOutcome stream_drive(std::size_t shards, std::size_t threads, const char* fault_plan,
                                std::size_t bid_trigger, std::size_t requests = kRequests) {
  StreamConfig config;
  config.engine = engine_config(shards, fault_plan);
  config.triggers.bids = bid_trigger;
  config.threads = threads;
  StreamingMarket market(config);
  return drive_trace_stream(market, driver_config(requests));
}

std::string stream_summary(std::size_t shards, std::size_t threads, const char* fault_plan,
                           std::size_t bid_trigger) {
  return stream_drive(shards, threads, fault_plan, bid_trigger).drive.report.summary_json();
}

TEST(StreamDeterminism, AlignedStreamMatchesBatchByteForByteAcrossThreads) {
  const std::size_t hw = ThreadPool::default_workers();
  // 90 bids end on a short batch (a flush close); 96 bids are exactly six
  // batches, so the last close is bid-count and the flush closes nothing.
  for (const std::size_t requests : {kRequests, std::size_t{64}}) {
    const std::string oracle = batch_summary(4, 1, nullptr, requests);
    ASSERT_NE(oracle.find("\"micro_epochs\""), std::string::npos);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
      EXPECT_EQ(batch_summary(4, threads, nullptr, requests), oracle)
          << "batch threads=" << threads << " requests=" << requests;
      // Bid-count trigger on the batch boundary.
      const StreamDriveOutcome by_bids = stream_drive(4, threads, nullptr, kBatch, requests);
      EXPECT_EQ(by_bids.drive.report.summary_json(), oracle)
          << "stream(bids) threads=" << threads << " requests=" << requests;
      const std::size_t bids = requests + requests / 2;
      EXPECT_EQ(by_bids.micro_epochs, (bids + kBatch - 1) / kBatch) << "requests=" << requests;
    }
  }
}

TEST(StreamDeterminism, ChaosAlignedStreamMatchesBatchByteForByte) {
  // Faults exercised mid-stream: ingest rejections (site = per-shard
  // ingest sequence, identical across modes because both count every
  // submission), withheld reveals, dishonest votes and client denials
  // inside the shard rounds.  The plan is deterministic, so batch and
  // aligned streaming still agree byte-for-byte.
  static constexpr const char* kPlan =
      "reject_ingest:p=0.1;withhold_reveal:p=0.2;dishonest_vote:p=0.25;deny_agreement:p=0.2";
  const std::size_t hw = ThreadPool::default_workers();
  const std::string oracle = batch_summary(4, 1, kPlan);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    EXPECT_EQ(batch_summary(4, threads, kPlan), oracle) << "batch threads=" << threads;
    EXPECT_EQ(stream_summary(4, threads, kPlan, kBatch), oracle)
        << "stream threads=" << threads;
  }
  // The chaos run really was chaotic — otherwise this test degrades into
  // the clean variant silently.
  EXPECT_NE(oracle, batch_summary(4, 1, nullptr));
}

TEST(StreamDeterminism, StreamIsSelfConsistentForAnyTriggerConfig) {
  // Unaligned triggers legitimately differ from batch, but the SAME
  // trigger config must reproduce exactly at every thread count.
  const std::size_t hw = ThreadPool::default_workers();
  for (const std::size_t bids : {std::size_t{7}, std::size_t{11}, std::size_t{5}}) {
    const std::string baseline = stream_summary(3, 1, nullptr, bids);
    for (const std::size_t threads : {std::size_t{2}, hw}) {
      EXPECT_EQ(stream_summary(3, threads, nullptr, bids), baseline)
          << "bids=" << bids << " threads=" << threads;
    }
  }
}

TEST(StreamDeterminism, SingleBatchStreamFlushMatchesBatchMode) {
  // A batch of the whole trace submits everything then ticks once; the
  // stream analogue closes nothing until flush().  Byte-identical too.
  const engine::TraceDriverConfig driver = driver_config();

  engine::MarketEngine engine(engine_config(2, nullptr));
  engine::EpochScheduler scheduler(engine, 1);
  const std::string oracle =
      test::drive_batch(engine, scheduler, driver, /*bids_per_epoch=*/0).report.summary_json();

  StreamConfig config;
  config.engine = engine_config(2, nullptr);
  config.triggers.bids = 0;
  StreamingMarket market(config);
  EXPECT_EQ(drive_trace_stream(market, driver).drive.report.summary_json(), oracle);
}

}  // namespace
}  // namespace decloud::stream
