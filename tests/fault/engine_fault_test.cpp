// Engine-level chaos: injected ingest rejections, the deterministic
// retry-with-backoff that recovers them, and the byte-determinism contract
// under an active fault plan across scheduler thread counts.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "batch_reference.hpp"
#include "common/thread_pool.hpp"
#include "engine/driver.hpp"
#include "engine/epoch_scheduler.hpp"

namespace decloud::engine {
namespace {

EngineConfig small_engine(std::size_t shards) {
  EngineConfig config;
  config.router.num_shards = shards;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 8;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  return config;
}

auction::Request make_request(std::uint64_t id, Money bid, double x, double y) {
  auction::Request r;
  r.id = RequestId(id);
  r.client = ClientId(id);
  r.submitted = static_cast<Time>(id);
  r.resources.set(auction::ResourceSchema::kCpu, 1.0);
  r.window_start = 0;
  r.window_end = 1'000'000;
  r.duration = 3600;
  r.bid = bid;
  r.location = auction::Location{x, y};
  return r;
}

auction::Offer make_offer(std::uint64_t id, Money bid, double x, double y) {
  auction::Offer o;
  o.id = OfferId(id);
  o.provider = ProviderId(id);
  o.submitted = static_cast<Time>(id);
  o.resources.set(auction::ResourceSchema::kCpu, 4.0);
  o.window_start = 0;
  o.window_end = 2'000'000;
  o.bid = bid;
  o.location = auction::Location{x, y};
  return o;
}

TEST(EngineFault, InjectedRejectionIsFinalWithoutARetryBudget) {
  EngineConfig config = small_engine(2);
  config.fault_plan = fault::FaultPlan::parse("reject_ingest");
  MarketEngine engine(config);

  const EngineAdmission refused = engine.submit(make_request(1, 1.0, 5.0, 5.0));
  EXPECT_FALSE(refused.admitted());
  EXPECT_EQ(refused.reason, EngineAdmission::Reason::kBackpressure);
  EXPECT_EQ(engine.report().bids_rejected_backpressure, 1u);
  EXPECT_EQ(engine.queued_bids(), 0u);
}

TEST(EngineFault, DeferredBidsFlushAndSucceedAfterBackoff) {
  EngineConfig config = small_engine(2);
  // The fault refuses first submissions only (attempt 0 = the producer
  // call); the epoch-1 retry goes through.
  config.fault_plan = fault::FaultPlan::parse("reject_ingest:attempts=0");
  config.retry.max_attempts = 1;
  MarketEngine engine(config);

  const EngineAdmission deferred = engine.submit(make_request(1, 5.0, 5.0, 5.0));
  EXPECT_EQ(deferred.status, Admission::kQueued);
  EXPECT_EQ(deferred.reason, EngineAdmission::Reason::kDeferred);
  EXPECT_TRUE(deferred.admitted());  // still in flight, not lost
  const EngineAdmission offer = engine.submit(make_offer(1, 0.1, 5.5, 5.5));
  EXPECT_EQ(offer.reason, EngineAdmission::Reason::kDeferred);
  // Spare offer so the retried pair survives trade reduction.
  const EngineAdmission spare = engine.submit(make_offer(2, 0.2, 5.2, 5.2));
  EXPECT_EQ(spare.reason, EngineAdmission::Reason::kDeferred);
  EXPECT_EQ(engine.queued_bids(), 3u);  // parked in the deferral buffer

  EpochScheduler scheduler(engine, 1);
  scheduler.run(/*max_epochs=*/8);

  const EngineReport report = scheduler.report();
  EXPECT_EQ(report.bids_retry_scheduled, 3u);
  EXPECT_EQ(report.bids_retry_succeeded, 3u);
  EXPECT_EQ(report.bids_retry_dropped, 0u);
  EXPECT_EQ(report.total.requests_submitted, 1u);
  EXPECT_EQ(report.total.offers_submitted, 2u);
  EXPECT_EQ(report.total.requests_allocated, 1u);  // the pair still matched
  EXPECT_EQ(report.bids_rejected_backpressure, 0u);
}

TEST(EngineFault, RetryBudgetExhaustionDropsTheBid) {
  EngineConfig config = small_engine(2);
  config.fault_plan = fault::FaultPlan::parse("reject_ingest");  // refuses every attempt
  config.retry.max_attempts = 2;
  MarketEngine engine(config);

  const EngineAdmission deferred = engine.submit(make_request(1, 5.0, 5.0, 5.0));
  EXPECT_EQ(deferred.reason, EngineAdmission::Reason::kDeferred);
  const std::size_t shard = deferred.shard;

  EpochScheduler scheduler(engine, 1);
  scheduler.run(/*max_epochs=*/16);

  const EngineReport report = scheduler.report();
  // Initial deferral + one re-deferral, then the budget runs out.
  EXPECT_EQ(report.bids_retry_scheduled, 2u);
  EXPECT_EQ(report.bids_retry_succeeded, 0u);
  EXPECT_EQ(report.bids_retry_dropped, 1u);
  EXPECT_EQ(report.shards[shard].bids_retry_dropped, 1u);
  EXPECT_EQ(report.total.requests_submitted, 0u);  // never reached a market
  EXPECT_EQ(engine.queued_bids(), 0u);             // nothing parked forever
}

TEST(EngineFault, ChaosRunIsByteIdenticalAcrossThreadCounts) {
  const auto config = [] {
    EngineConfig c = small_engine(4);
    c.observability = true;
    c.market.consensus.max_remine_attempts = 1;
    c.retry.max_attempts = 2;
    c.fault_plan = fault::FaultPlan::parse(
        "withhold_reveal:p=0.3;dishonest_vote:p=0.25;deny_agreement:p=0.5;"
        "duplicate_sealed_bid:p=0.2;corrupt_sealed_bid:p=0.1;reject_ingest:p=0.2");
    c.fault_seed = 42;
    return c;
  };
  TraceDriverConfig driver;
  driver.workload.num_requests = 40;
  driver.workload.num_offers = 20;
  driver.located_fraction = 0.8;
  driver.seed = 7;

  const std::size_t hw = ThreadPool::default_workers();
  std::string summary_baseline;
  std::string metrics_baseline;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    MarketEngine engine(config());
    EpochScheduler scheduler(engine, threads);
    const DriveOutcome outcome = test::drive_batch(engine, scheduler, driver, 20);
    const std::string summary = outcome.report.summary_json();
    const std::string metrics = scheduler.metrics_json();
    if (summary_baseline.empty()) {
      summary_baseline = summary;
      metrics_baseline = metrics;
      // The chaos plan really engaged: faults show up in the report.
      EXPECT_NE(metrics.find("fault."), std::string::npos);
      ASSERT_GT(outcome.report.total.requests_allocated, 0u);
    } else {
      EXPECT_EQ(summary, summary_baseline) << "summary divergence at threads=" << threads;
      EXPECT_EQ(metrics, metrics_baseline) << "metrics divergence at threads=" << threads;
    }
  }
}

TEST(EngineFault, SameChaosPlanReproducesAndSeedChangesOutcome) {
  const auto run = [](std::uint64_t fault_seed) {
    EngineConfig c = small_engine(2);
    c.market.consensus.max_remine_attempts = 1;
    c.fault_plan = fault::FaultPlan::parse("withhold_reveal:p=0.5;dishonest_vote:p=0.5");
    c.fault_seed = fault_seed;
    MarketEngine engine(c);
    EpochScheduler scheduler(engine, 1);
    TraceDriverConfig driver;
    driver.workload.num_requests = 24;
    driver.workload.num_offers = 12;
    driver.seed = 9;
    return test::drive_batch(engine, scheduler, driver, 12).report.summary_json();
  };
  const std::string a = run(1);
  EXPECT_EQ(run(1), a);
  EXPECT_NE(run(2), a);  // the fault seed is part of the experiment identity
}

}  // namespace
}  // namespace decloud::engine
