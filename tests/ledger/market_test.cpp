#include "ledger/market.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"

namespace decloud::ledger {
namespace {

MarketConfig small_config() {
  MarketConfig mc;
  mc.consensus.difficulty_bits = 8;
  mc.num_verifiers = 1;
  return mc;
}

auction::Request make_request(std::uint64_t id, Money bid, double cpu = 1.0) {
  auction::Request r;
  r.id = RequestId(id);
  r.client = ClientId(id);
  r.submitted = static_cast<Time>(id);
  r.resources.set(auction::ResourceSchema::kCpu, cpu);
  r.window_start = 0;
  r.window_end = 1'000'000;  // wide windows so resubmission stays feasible
  r.duration = 3600;
  r.bid = bid;
  return r;
}

auction::Offer make_offer(std::uint64_t id, Money bid, double cpu = 4.0) {
  auction::Offer o;
  o.id = OfferId(id);
  o.provider = ProviderId(id);
  o.submitted = static_cast<Time>(id);
  o.resources.set(auction::ResourceSchema::kCpu, cpu);
  o.window_start = 0;
  o.window_end = 2'000'000;
  o.bid = bid;
  return o;
}

TEST(MarketOrchestrator, SingleRoundAllocates) {
  MarketOrchestrator market(small_config());
  market.submit(make_request(1, 5.0));
  market.submit(make_offer(1, 0.1));
  market.submit(make_offer(2, 0.2));  // spare: lets the single trade survive

  const auto outcome = market.run_round(0);
  EXPECT_TRUE(outcome.block_accepted);
  EXPECT_EQ(market.stats().requests_allocated, 1u);
  EXPECT_EQ(market.stats().rounds, 1u);
  ASSERT_FALSE(market.stats().allocation_latency.empty());
  EXPECT_EQ(market.stats().allocation_latency[0], 1u);  // first attempt
}

TEST(MarketOrchestrator, UnmatchedBidResubmitsAndEventuallyAllocates) {
  MarketOrchestrator market(small_config());
  // Round 1: a lone pair — trade reduction eats the only trade, so the
  // request must come back.
  market.submit(make_request(1, 5.0));
  market.submit(make_offer(1, 0.1));
  const auto first = market.run_round(0);
  EXPECT_TRUE(first.block_accepted);
  EXPECT_EQ(market.stats().requests_allocated, 0u);
  EXPECT_GT(market.queued_bids(), 0u);  // both bids re-queued

  // Round 2: a spare offer arrives; the resubmitted request clears.
  market.submit(make_offer(2, 0.2));
  const auto second = market.run_round(600);
  EXPECT_TRUE(second.block_accepted);
  EXPECT_EQ(market.stats().requests_allocated, 1u);
  // The allocation happened on the request's SECOND attempt.
  ASSERT_GE(market.stats().allocation_latency.size(), 2u);
  EXPECT_EQ(market.stats().allocation_latency[1], 1u);
}

TEST(MarketOrchestrator, RetryBudgetAbandonsHopelessBids) {
  MarketConfig mc = small_config();
  mc.max_resubmissions = 2;
  MarketOrchestrator market(mc);
  market.submit(make_request(1, 0.000001));  // cannot afford anything
  market.submit(make_offer(1, 50.0));
  market.drain(/*max_rounds=*/10);
  EXPECT_EQ(market.stats().requests_allocated, 0u);
  EXPECT_EQ(market.stats().requests_abandoned, 1u);
  EXPECT_LE(market.stats().rounds, 4u);  // 1 initial + 2 retries + drain stop
}

TEST(MarketOrchestrator, DrainStopsWhenQueueEmpties) {
  MarketOrchestrator market(small_config());
  market.submit(make_request(1, 5.0));
  market.submit(make_offer(1, 0.1));
  market.submit(make_offer(2, 0.2));
  market.drain(20);
  EXPECT_LE(market.stats().rounds, 5u);
  EXPECT_EQ(market.stats().requests_allocated, 1u);
}

TEST(MarketOrchestrator, StatsAreInternallyConsistent) {
  MarketOrchestrator market(small_config());
  Rng rng(9);
  for (std::uint64_t i = 1; i <= 12; ++i) {
    market.submit(make_request(i, rng.uniform(0.5, 4.0)));
  }
  for (std::uint64_t i = 1; i <= 8; ++i) {
    market.submit(make_offer(i, rng.uniform(0.05, 0.6)));
  }
  market.drain(10);

  const MarketStats& st = market.stats();
  EXPECT_EQ(st.requests_submitted, 12u);
  EXPECT_LE(st.requests_allocated + st.requests_abandoned, st.requests_submitted);
  const std::size_t latency_sum =
      std::accumulate(st.allocation_latency.begin(), st.allocation_latency.end(), std::size_t{0});
  EXPECT_EQ(latency_sum, st.requests_allocated);
  EXPECT_GE(st.allocation_rate(), 0.0);
  EXPECT_LE(st.allocation_rate(), 1.0);
  EXPECT_GE(st.total_welfare, 0.0);
  // Chain advanced one block per round.
  EXPECT_EQ(market.protocol().chain().height(), st.rounds);
}

// --- MarketStats edge-case semantics, locked in by regression tests. ---

TEST(MarketStatsEdge, AllocationRateWithZeroSubmissionsIsZeroNotNaN) {
  const MarketStats empty;
  EXPECT_EQ(empty.allocation_rate(), 0.0);
  // And through a live orchestrator that never saw a bid:
  MarketOrchestrator market(small_config());
  EXPECT_EQ(market.stats().allocation_rate(), 0.0);
}

TEST(MarketStatsEdge, MaxResubmissionsZeroGivesExactlyOneRound) {
  MarketConfig mc = small_config();
  mc.max_resubmissions = 0;
  MarketOrchestrator market(mc);
  market.submit(make_request(1, 0.000001));  // hopeless: cannot afford anything
  market.submit(make_offer(1, 50.0));
  const auto outcome = market.run_round(0);
  EXPECT_TRUE(outcome.block_accepted);
  // One round, no resubmission: the request is abandoned and the offer is
  // gone too — the queue is empty after the single attempt.
  EXPECT_EQ(market.stats().rounds, 1u);
  EXPECT_EQ(market.stats().requests_abandoned, 1u);
  EXPECT_EQ(market.stats().requests_allocated, 0u);
  EXPECT_EQ(market.queued_bids(), 0u);
  market.drain(10);
  EXPECT_EQ(market.stats().rounds, 1u);  // drain finds nothing to do
}

TEST(MarketStatsEdge, DeniedAgreementRevertsLatencyAndRefundsOffer) {
  MarketOrchestrator market(small_config());
  market.submit(make_request(1, 5.0));
  market.submit(make_offer(1, 0.1));
  market.submit(make_offer(2, 0.2));
  const auto outcome = market.run_round(0);
  ASSERT_TRUE(outcome.block_accepted);
  ASSERT_EQ(market.stats().requests_allocated, 1u);
  ASSERT_EQ(outcome.agreements.size(), 1u);
  const std::size_t latency_before = std::accumulate(market.stats().allocation_latency.begin(),
                                                     market.stats().allocation_latency.end(),
                                                     std::size_t{0});
  ASSERT_EQ(latency_before, 1u);
  const std::size_t offers_queued_before = market.queued_bids();

  ASSERT_TRUE(market.deny_agreement(outcome.agreements[0]));

  // The allocation is un-counted and the latency histogram reverts with it
  // (invariant: Σ latency == requests_allocated survives denial).
  EXPECT_EQ(market.stats().requests_allocated, 0u);
  EXPECT_EQ(market.stats().agreements_denied, 1u);
  const std::size_t latency_after = std::accumulate(market.stats().allocation_latency.begin(),
                                                    market.stats().allocation_latency.end(),
                                                    std::size_t{0});
  EXPECT_EQ(latency_after, 0u);
  // The provider's offer is still queued (denial refunds its attempt, so
  // it does not age out faster than an unmatched offer would).
  EXPECT_GE(market.queued_bids(), offers_queued_before);

  // Denying twice fails: the agreement already left the Proposed state.
  EXPECT_FALSE(market.deny_agreement(outcome.agreements[0]));

  // The refunded offer can still serve a NEW request, whose latency lands
  // in the first-attempt bucket as usual.
  market.submit(make_request(2, 5.0));
  const auto second = market.run_round(600);
  ASSERT_TRUE(second.block_accepted);
  EXPECT_EQ(market.stats().requests_allocated, 1u);
  ASSERT_FALSE(market.stats().allocation_latency.empty());
  EXPECT_EQ(market.stats().allocation_latency[0], 1u);
}

TEST(MarketStatsEdge, DenyAgreementRejectsUnknownOrStaleIds) {
  MarketOrchestrator market(small_config());
  EXPECT_FALSE(market.deny_agreement(ContractId(12345)));
  market.submit(make_request(1, 5.0));
  market.submit(make_offer(1, 0.1));
  market.submit(make_offer(2, 0.2));
  const auto outcome = market.run_round(0);
  ASSERT_TRUE(outcome.block_accepted);
  ASSERT_EQ(outcome.agreements.size(), 1u);
  // A later round supersedes the deniable set.
  market.submit(make_request(2, 5.0));
  (void)market.run_round(600);
  EXPECT_FALSE(market.deny_agreement(outcome.agreements[0]));
}

TEST(MarketOrchestrator, ValidatesOnSubmit) {
  MarketOrchestrator market(small_config());
  auction::Request bad = make_request(1, -1.0);
  EXPECT_THROW(market.submit(bad), precondition_error);
}

// The protocol's admission pre-filter is the only writer of the round's
// verified set: a corrupted sealed bid still fails there and is dropped
// with its count, and never reaches the block.
TEST(MarketOrchestrator, CorruptSealedBidsAreDroppedAndCounted) {
  MarketOrchestrator market(small_config());
  const fault::FaultInjector injector(fault::FaultPlan::parse("corrupt_sealed_bid:index=1-2"), 3);
  market.attach({.faults = &injector});
  for (std::uint64_t i = 1; i <= 4; ++i) market.submit(make_request(i, 5.0));
  market.submit(make_offer(1, 0.1));

  const RoundOutcome outcome = market.run_round(0);
  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.fault.bids_invalid_dropped, 2u);
  EXPECT_EQ(outcome.block.preamble.sealed_bids.size(), 3u);
  EXPECT_EQ(outcome.snapshot.requests.size(), 2u);
  EXPECT_EQ(outcome.snapshot.offers.size(), 1u);
}

}  // namespace
}  // namespace decloud::ledger
