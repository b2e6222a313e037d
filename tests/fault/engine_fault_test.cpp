// Engine-level chaos: injected ingest rejections, the deterministic
// retry-with-backoff that recovers them, and the byte-determinism contract
// under an active fault plan across scheduler thread counts.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
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

/// Every `fault.*` counter of a metrics_json() export, by name.
std::map<std::string, std::uint64_t> fault_counters(const std::string& metrics) {
  std::map<std::string, std::uint64_t> out;
  const std::size_t end = metrics.find("},\"gauges\"");
  for (std::size_t at = metrics.find("\"fault."); at < end; at = metrics.find("\"fault.", at)) {
    const std::size_t close = metrics.find('"', at + 1);
    out[metrics.substr(at + 1, close - at - 1)] =
        std::strtoull(metrics.c_str() + close + 2, nullptr, 10);
    at = close;
  }
  return out;
}

// The fault emission map: for each hooked kind under a single-kind plan,
// how many kFaultFired events the journal holds and which fault.* counters
// the metrics export carries.  Counters are not one per kind, and a denial
// journals its trade/penalty events instead of a kFaultFired.
TEST(EngineFault, EmissionMapPerFaultKind) {
  using fault::FaultKind;
  struct Case {
    const char* plan;
    FaultKind kind;
  };
  const Case cases[] = {
      {"withhold_reveal:p=0.5", FaultKind::kWithholdReveal},
      {"corrupt_sealed_bid:p=0.2", FaultKind::kCorruptSealedBid},
      {"duplicate_sealed_bid:p=0.3", FaultKind::kDuplicateSealedBid},
      {"corrupt_allocation:p=0.5", FaultKind::kCorruptAllocation},
      {"dishonest_vote:p=0.5", FaultKind::kDishonestVote},
      {"deny_agreement:p=0.5", FaultKind::kDenyAgreement},
      {"reject_ingest:p=0.2", FaultKind::kRejectIngest},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.plan);
    EngineConfig config = small_engine(2);
    config.observability = true;
    config.journal_capacity = 1 << 14;
    config.market.consensus.max_remine_attempts = 1;
    config.fault_plan = fault::FaultPlan::parse(c.plan);
    config.fault_seed = 5;
    MarketEngine engine(config);
    EpochScheduler scheduler(engine, 1);
    TraceDriverConfig driver;
    driver.workload.num_requests = 40;
    driver.workload.num_offers = 20;
    driver.located_fraction = 0.8;
    driver.seed = 7;
    const EngineReport report = test::drive_batch(engine, scheduler, driver, 20).report;
    const std::map<std::string, std::uint64_t> counters = fault_counters(scheduler.metrics_json());

    const journal::Journal& journal = *engine.journal();
    std::uint64_t fired = 0, other_fired = 0, denied = 0, deny_penalties = 0;
    std::uint64_t withhold_penalties = 0, remined = 0;
    for (std::size_t ring = 0; ring < journal.num_rings(); ++ring) {
      ASSERT_EQ(journal.dropped(ring), 0u);
      for (const journal::Event& e : journal.events(ring)) {
        const auto penalty = static_cast<journal::PenaltyKind>(e.b);
        switch (e.kind) {
          case journal::EventKind::kFaultFired:
            ++(e.a == static_cast<std::uint64_t>(c.kind) ? fired : other_fired);
            break;
          case journal::EventKind::kTradeDenied: ++denied; break;
          case journal::EventKind::kBlockRemined: ++remined; break;
          case journal::EventKind::kReputationPenalty:
            if (penalty == journal::PenaltyKind::kDeny) ++deny_penalties;
            if (penalty == journal::PenaltyKind::kWithhold) ++withhold_penalties;
            break;
          default: break;
        }
      }
    }
    EXPECT_EQ(other_fired, 0u);

    // Expected fault.* counters; every other fault.* name must be absent.
    std::map<std::string, std::uint64_t> expected;
    switch (c.kind) {
      case FaultKind::kWithholdReveal:
        // No per-firing counter: only the penalties the withholding cost.
        EXPECT_GT(fired, 0u);
        EXPECT_GT(withhold_penalties, 0u);
        expected["fault.withhold_penalties"] = withhold_penalties;
        break;
      case FaultKind::kCorruptSealedBid:
        // Each corrupted bid fails its signature check and is dropped.
        EXPECT_GT(fired, 0u);
        expected["fault.bids_corrupted"] = fired;
        expected["fault.bids_invalid_dropped"] = fired;
        break;
      case FaultKind::kDuplicateSealedBid:
        EXPECT_GT(fired, 0u);
        EXPECT_EQ(report.total.bids_duplicate_rejected, fired);
        expected["fault.duplicates_rejected"] = report.total.bids_duplicate_rejected;
        break;
      case FaultKind::kCorruptAllocation:
      case FaultKind::kDishonestVote:
        // A refused block is re-mined within the attempt budget.
        EXPECT_GT(fired, 0u);
        EXPECT_GT(remined, 0u);
        expected[c.kind == FaultKind::kCorruptAllocation ? "fault.allocations_corrupted"
                                                          : "fault.dishonest_votes"] = fired;
        expected["fault.blocks_remined"] = remined;
        break;
      case FaultKind::kDenyAgreement:
        // A denial journals kTradeDenied + a kDeny penalty, no kFaultFired.
        EXPECT_EQ(fired, 0u);
        EXPECT_GT(report.total.agreements_denied, 0u);
        EXPECT_EQ(denied, report.total.agreements_denied);
        EXPECT_EQ(deny_penalties, report.total.agreements_denied);
        expected["fault.agreements_denied"] = report.total.agreements_denied;
        break;
      case FaultKind::kRejectIngest:
        // No counter: without a retry budget each firing is one refusal.
        EXPECT_GT(fired, 0u);
        EXPECT_EQ(report.bids_rejected_backpressure, fired);
        break;
      default: FAIL() << "unexpected kind";
    }
    EXPECT_EQ(counters, expected);
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
