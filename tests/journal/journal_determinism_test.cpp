// The flight recorder's acceptance bar (ISSUE 9): journal bytes are
// IDENTICAL at scheduler threads {1, 2, hw}, for the batch reference loop
// (tests/batch_reference.hpp) and the aligned-trigger drive loop, with and
// without an active fault plan — and still identical
// when tiny rings force drop-oldest overflow.  This is the same oracle
// discipline as stream_determinism_test, applied to the journal encoding
// instead of the report summary.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "batch_reference.hpp"
#include "common/thread_pool.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"
#include "fault/fault.hpp"
#include "journal/journal.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"

namespace decloud::journal {
namespace {

constexpr std::size_t kBatch = 16;

engine::EngineConfig engine_config(const char* fault_plan, std::size_t journal_capacity) {
  engine::EngineConfig config;
  config.router.num_shards = 4;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 6;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  config.market.consensus.max_remine_attempts = 1;
  config.journal_capacity = journal_capacity;
  if (fault_plan != nullptr) {
    config.fault_plan = fault::FaultPlan::parse(fault_plan);
    config.fault_seed = 3;
  }
  return config;
}

engine::TraceDriverConfig driver_config() {
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = 60;
  driver.workload.num_offers = 30;
  driver.located_fraction = 0.8;
  driver.seed = 7;
  return driver;
}

std::vector<std::uint8_t> batch_journal(std::size_t threads, const char* fault_plan,
                                        std::size_t capacity = 4096) {
  engine::MarketEngine engine(engine_config(fault_plan, capacity));
  engine::EpochScheduler scheduler(engine, threads);
  (void)test::drive_batch(engine, scheduler, driver_config(), kBatch);
  return engine.journal()->encode();
}

std::vector<std::uint8_t> stream_journal(std::size_t threads, const char* fault_plan,
                                         std::size_t capacity = 4096) {
  stream::StreamConfig config;
  config.engine = engine_config(fault_plan, capacity);
  config.triggers.bids = kBatch;
  config.threads = threads;
  stream::StreamingMarket market(config);
  (void)stream::drive_trace_stream(market, driver_config());
  return market.market_engine().journal()->encode();
}

TEST(JournalDeterminism, ByteIdenticalAcrossThreadsAndModes) {
  const std::size_t hw = ThreadPool::default_workers();
  const std::vector<std::uint8_t> oracle = batch_journal(1, nullptr);
  // The oracle run really recorded market activity.
  const Journal decoded = Journal::decode(oracle);
  EXPECT_EQ(decoded.num_rings(), 5u);  // control + 4 shards
  EXPECT_GT(decoded.total_events(), 0u);
  std::size_t trades = 0;
  for (std::size_t ring = 1; ring < decoded.num_rings(); ++ring) {
    for (const Event& e : decoded.events(ring)) {
      if (e.kind == EventKind::kTradeStruck) ++trades;
    }
  }
  EXPECT_GT(trades, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    EXPECT_EQ(batch_journal(threads, nullptr), oracle) << "batch threads=" << threads;
    EXPECT_EQ(stream_journal(threads, nullptr), oracle) << "stream threads=" << threads;
  }
}

TEST(JournalDeterminism, ChaosJournalsByteIdenticalAcrossThreadsAndModes) {
  static constexpr const char* kPlan =
      "reject_ingest:p=0.1;withhold_reveal:p=0.2;dishonest_vote:p=0.25;deny_agreement:p=0.2";
  const std::size_t hw = ThreadPool::default_workers();
  const std::vector<std::uint8_t> oracle = batch_journal(1, kPlan);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    EXPECT_EQ(batch_journal(threads, kPlan), oracle) << "batch threads=" << threads;
    EXPECT_EQ(stream_journal(threads, kPlan), oracle) << "stream threads=" << threads;
  }
  // The chaos journal differs from the clean one AND records the chaos —
  // otherwise this test degrades into the clean variant silently.
  EXPECT_NE(oracle, batch_journal(1, nullptr));
  const Journal decoded = Journal::decode(oracle);
  std::size_t faults = 0;
  std::size_t penalties = 0;
  for (std::size_t ring = 0; ring < decoded.num_rings(); ++ring) {
    for (const Event& e : decoded.events(ring)) {
      if (e.kind == EventKind::kFaultFired) ++faults;
      if (e.kind == EventKind::kReputationPenalty) ++penalties;
    }
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(penalties, 0u);
}

TEST(JournalDeterminism, OverflowingRingsStayDeterministic) {
  // Tiny rings force drop-oldest on every shard; the surviving tail (and
  // the drop counts) must still be byte-identical across thread counts.
  const std::size_t hw = ThreadPool::default_workers();
  const std::vector<std::uint8_t> oracle = batch_journal(1, nullptr, /*capacity=*/8);
  const Journal decoded = Journal::decode(oracle);
  std::uint64_t drops = 0;
  for (std::size_t ring = 0; ring < decoded.num_rings(); ++ring) {
    EXPECT_LE(decoded.size(ring), 8u);
    drops += decoded.dropped(ring);
  }
  EXPECT_GT(drops, 0u) << "capacity 8 must overflow on this workload";
  for (const std::size_t threads : {std::size_t{2}, hw}) {
    EXPECT_EQ(batch_journal(threads, nullptr, 8), oracle) << "threads=" << threads;
  }
  EXPECT_EQ(stream_journal(1, nullptr, 8), oracle);
}

TEST(JournalDeterminism, JournalOffByDefaultAndNeverChangesResults) {
  // capacity 0 = no recorder: the engine holds no journal, and recording
  // never perturbs the market — reports with and without are identical.
  engine::MarketEngine off(engine_config(nullptr, 0));
  engine::EpochScheduler off_scheduler(off, 2);
  const std::string without =
      test::drive_batch(off, off_scheduler, driver_config(), kBatch).report.summary_json();
  EXPECT_EQ(off.journal(), nullptr);

  engine::MarketEngine on(engine_config(nullptr, 4096));
  engine::EpochScheduler on_scheduler(on, 2);
  const std::string with =
      test::drive_batch(on, on_scheduler, driver_config(), kBatch).report.summary_json();
  ASSERT_NE(on.journal(), nullptr);
  EXPECT_EQ(with, without);
}

}  // namespace
}  // namespace decloud::journal
