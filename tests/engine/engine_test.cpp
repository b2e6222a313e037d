#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "batch_reference.hpp"
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

TEST(MarketEngine, RoutesColocatedBidsToOneShardAndClearsThem) {
  MarketEngine engine(small_engine(4));
  // A matched pair plus a spare offer, all at one spot → one shard hosts
  // the whole market.
  const auto a1 = engine.submit(make_request(1, 5.0, 10.0, 10.0));
  const auto a2 = engine.submit(make_offer(1, 0.1, 10.5, 10.5));
  const auto a3 = engine.submit(make_offer(2, 0.2, 10.1, 10.9));
  ASSERT_TRUE(a1.admitted());
  EXPECT_EQ(a1.shard, a2.shard);
  EXPECT_EQ(a1.shard, a3.shard);

  EpochScheduler scheduler(engine, /*threads=*/1);
  scheduler.run(/*max_epochs=*/8);

  const EngineReport report = scheduler.report();
  EXPECT_EQ(report.total.requests_submitted, 1u);
  EXPECT_EQ(report.total.requests_allocated, 1u);
  EXPECT_EQ(report.shards[a1.shard].stats.requests_allocated, 1u);
  // Only the busy shard ran rounds; idle shards must not mine empty blocks.
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    if (s != a1.shard) {
      EXPECT_EQ(report.shards[s].epochs, 0u);
      EXPECT_EQ(report.shards[s].stats.rounds, 0u);
    }
  }
}

TEST(MarketEngine, BackpressureRejectsAtCapacityAndCountsPerShard) {
  EngineConfig config = small_engine(2);
  config.queue_capacity = 3;
  MarketEngine engine(config);

  // All to the same location → same shard queue.
  const auto first = engine.submit(make_request(1, 1.0, 5.0, 5.0));
  ASSERT_TRUE(first.admitted());
  EXPECT_EQ(first.reason, EngineAdmission::Reason::kNone);
  EXPECT_TRUE(engine.submit(make_request(2, 1.0, 5.0, 5.0)).admitted());
  EXPECT_TRUE(engine.submit(make_request(3, 1.0, 5.0, 5.0)).admitted());
  const auto fourth = engine.submit(make_request(4, 1.0, 5.0, 5.0));
  EXPECT_FALSE(fourth.admitted());
  EXPECT_EQ(fourth.reason, EngineAdmission::Reason::kBackpressure);

  const EngineReport report = engine.report();
  EXPECT_EQ(report.bids_rejected_backpressure, 1u);
  EXPECT_EQ(report.shards[first.shard].bids_rejected_backpressure, 1u);
  // The rejected bid never reached the market.
  EXPECT_EQ(report.total.requests_submitted, 0u);  // still in ingest, not market
  EXPECT_EQ(engine.queued_bids(), 3u);

  // Draining the queue (one epoch) reopens admission.
  EpochScheduler scheduler(engine, 1);
  scheduler.tick(0);
  EXPECT_TRUE(engine.submit(make_request(5, 1.0, 5.0, 5.0)).admitted());
}

TEST(MarketEngine, LocationlessBidsSpillByIdHashAndAreCounted) {
  MarketEngine engine(small_engine(4));
  auction::Request homeless = make_request(1, 1.0, 0.0, 0.0);
  homeless.location.reset();
  auction::Offer wanderer = make_offer(2, 0.1, 0.0, 0.0);
  wanderer.location.reset();

  const auto request = engine.submit(homeless);
  const auto offer = engine.submit(wanderer);
  ASSERT_TRUE(request.admitted());
  ASSERT_TRUE(offer.admitted());
  EXPECT_EQ(request.shard, engine.router().route(homeless).shard);
  EXPECT_EQ(offer.shard, engine.router().route(wanderer).shard);
  const EngineReport report = engine.report();
  EXPECT_EQ(report.bids_spilled, 2u);
  EXPECT_EQ(report.shards[request.shard].bids_spilled, request.shard == offer.shard ? 2u : 1u);
  // A located bid is routed by the grid and never counts as spilled.
  EXPECT_TRUE(engine.submit(make_request(3, 1.0, 5.0, 5.0)).admitted());
  EXPECT_EQ(engine.report().bids_spilled, 2u);
}

TEST(MarketEngine, ValidatesBidsAtSubmit) {
  MarketEngine engine(small_engine(2));
  auction::Request bad = make_request(1, -1.0, 5.0, 5.0);
  EXPECT_THROW(engine.submit(bad), precondition_error);
}

// The integration-level reconciliation the ISSUE pins down: EngineReport's
// aggregate counters must equal the shard-wise sums, and the merged
// MarketStats must equal the sum of the per-shard MarketStats.
TEST(MarketEngineIntegration, ReportReconcilesWithSummedShardStats) {
  EngineConfig config = small_engine(4);
  config.queue_capacity = 64;  // small enough that backpressure can trigger
  MarketEngine engine(config);
  EpochScheduler scheduler(engine, 1);

  TraceDriverConfig driver;
  driver.workload.num_requests = 48;
  driver.workload.num_offers = 24;
  driver.located_fraction = 0.75;  // a real spillover population
  driver.seed = 11;
  const DriveOutcome outcome = test::drive_batch(engine, scheduler, driver, 24);

  const EngineReport& report = outcome.report;
  ASSERT_EQ(report.shards.size(), 4u);

  ledger::MarketStats summed;
  std::size_t rejected = 0;
  std::size_t spilled = 0;
  Money welfare = 0.0;
  for (const ShardReport& shard : report.shards) {
    merge_stats(summed, shard.stats);
    rejected += shard.bids_rejected_backpressure;
    spilled += shard.bids_spilled;
    welfare += shard.welfare();
  }
  EXPECT_EQ(report.bids_rejected_backpressure, rejected);
  EXPECT_EQ(report.bids_spilled, spilled);
  EXPECT_EQ(report.total.requests_submitted, summed.requests_submitted);
  EXPECT_EQ(report.total.requests_allocated, summed.requests_allocated);
  EXPECT_EQ(report.total.requests_abandoned, summed.requests_abandoned);
  EXPECT_EQ(report.total.offers_submitted, summed.offers_submitted);
  EXPECT_EQ(report.total.rounds, summed.rounds);
  EXPECT_EQ(report.total.total_welfare, summed.total_welfare);
  EXPECT_EQ(report.total.allocation_latency, summed.allocation_latency);
  EXPECT_EQ(report.total.total_welfare, welfare);

  // Driver-side accounting closes the loop: everything generated was
  // either admitted into a shard or rejected for backpressure.
  EXPECT_EQ(outcome.bids_admitted + outcome.bids_rejected, outcome.bids_generated);
  EXPECT_EQ(outcome.bids_rejected, report.bids_rejected_backpressure);
  EXPECT_EQ(report.total.requests_submitted + report.total.offers_submitted,
            outcome.bids_admitted);
  // The latency histogram stays an exact decomposition of allocations.
  const std::size_t latency_sum =
      std::accumulate(report.total.allocation_latency.begin(),
                      report.total.allocation_latency.end(), std::size_t{0});
  EXPECT_EQ(latency_sum, report.total.requests_allocated);
  // Every allocation is backed by a block on some shard's chain.
  std::size_t chain_height = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    chain_height += engine.shard_market(s).protocol().chain().height();
  }
  EXPECT_EQ(chain_height, report.total.rounds);
}

}  // namespace
}  // namespace decloud::engine
