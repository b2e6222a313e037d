// End-to-end integration: trace-driven workloads through the full
// decentralized pipeline — sealed submission, PoW, key disclosure,
// allocation, collective verification, settlement and agreements —
// validating the paper-level economics on what actually landed on chain.
#include <gtest/gtest.h>

#include "auction/verify.hpp"
#include "ledger/protocol.hpp"
#include "trace/kl_shaper.hpp"
#include "trace/workload.hpp"

namespace decloud {
namespace {

TEST(EndToEnd, TraceWorkloadThroughInProcessProtocol) {
  ledger::ConsensusParams params{.difficulty_bits = 8};
  ledger::LedgerProtocol protocol(params);
  Rng rng(42);
  ledger::Participant clients(rng);
  ledger::Participant providers(rng);

  trace::WorkloadConfig wc;
  wc.num_requests = 40;
  wc.num_offers = 20;
  const auto snapshot = trace::make_workload(wc, params.auction, rng);
  for (const auto& r : snapshot.requests) {
    protocol.mempool().submit(clients.submit_request(r, rng));
  }
  for (const auto& o : snapshot.offers) {
    protocol.mempool().submit(providers.submit_offer(o, rng));
  }

  const auto outcome = protocol.run_round({&clients, &providers}, /*verifiers=*/3, 1000);

  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.snapshot.requests.size(), 40u);
  EXPECT_FALSE(outcome.result.matches.empty());
  EXPECT_TRUE(auction::verify_invariants(outcome.snapshot, outcome.result, params.auction).ok());
  EXPECT_NEAR(outcome.result.total_payments, outcome.result.total_revenue, 1e-9);
}

TEST(EndToEnd, MultiRoundEconomicsThroughProtocol) {
  ledger::ConsensusParams params{.difficulty_bits = 8};
  ledger::LedgerProtocol protocol(params);
  Rng wallet_rng(6);
  std::vector<ledger::Participant> wallets;
  for (std::size_t i = 0; i < 6; ++i) wallets.emplace_back(wallet_rng);
  std::vector<ledger::Participant*> participants;
  for (auto& w : wallets) participants.push_back(&w);

  Money total_welfare = 0.0;
  std::size_t total_matches = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    trace::WorkloadConfig wc;
    wc.num_requests = 20;
    wc.num_offers = 10;
    Rng rng(100 + round);
    const auto snap = trace::make_workload(wc, params.auction, rng);
    for (std::size_t i = 0; i < snap.requests.size(); ++i) {
      protocol.mempool().submit(wallets[i % wallets.size()].submit_request(snap.requests[i], rng));
    }
    for (std::size_t i = 0; i < snap.offers.size(); ++i) {
      protocol.mempool().submit(wallets[i % wallets.size()].submit_offer(snap.offers[i], rng));
    }
    const auto outcome =
        protocol.run_round(participants, /*verifiers=*/3, static_cast<Time>(600 * round));
    ASSERT_TRUE(outcome.block_accepted) << "round " << round;
    EXPECT_EQ(outcome.snapshot.requests.size(), 20u);
    EXPECT_TRUE(auction::verify_invariants(outcome.snapshot, outcome.result, params.auction).ok());
    EXPECT_EQ(outcome.agreements.size(), outcome.result.matches.size());
    total_welfare += outcome.result.welfare;
    total_matches += outcome.result.matches.size();
  }
  EXPECT_GT(total_welfare, 0.0);
  EXPECT_GT(total_matches, 0u);
  EXPECT_EQ(protocol.chain().height(), 3u);
}

TEST(EndToEnd, WelfareRatioInPaperBallpark) {
  // The headline claim: DeCloud attains 70 %+ of the non-truthful
  // benchmark welfare (Fig. 5b).  The paper reports the Loess trend of the
  // ratio; individual rounds scatter below it (a demand-surplus round pays
  // the full price of the verifiable random exclusion of requests,
  // Section IV-D), so the assertion targets the mean with a loose floor
  // per round.
  auction::AuctionConfig truthful;
  auction::AuctionConfig bench;
  bench.truthful = false;

  double sum_ratio = 0.0;
  std::size_t rounds = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    trace::WorkloadConfig wc;
    wc.num_requests = 150;
    wc.num_offers = 75;
    Rng rng(seed);
    const auto snap = trace::make_workload(wc, truthful, rng);
    const auto rt = auction::DeCloudAuction(truthful).run(snap, seed);
    const auto rb = auction::DeCloudAuction(bench).run(snap, seed);
    if (rb.welfare > 1e-9) {
      const double ratio = rt.welfare / rb.welfare;
      EXPECT_GE(ratio, 0.50) << "seed " << seed;
      sum_ratio += ratio;
      ++rounds;
    }
  }
  ASSERT_GT(rounds, 0u);
  EXPECT_GE(sum_ratio / static_cast<double>(rounds), 0.70);
}

TEST(EndToEnd, FlexibilityNeverHurtsSatisfaction) {
  // Fig. 5d's qualitative claim on divergent markets: 80 % flexibility
  // yields at least the satisfaction of the inflexible market.
  for (const double lambda : {0.3, 0.6, 0.9}) {
    trace::KlShaperConfig kc;
    kc.num_requests = 150;
    kc.num_offers = 150;

    auction::AuctionConfig inflexible;
    inflexible.best_offer_ratio = 0.2;
    inflexible.max_best_offers = 32;
    auction::AuctionConfig flexible = inflexible;
    flexible.flexibility = 0.8;

    double sat_inflex = 0.0;
    double sat_flex = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng r1(seed);
      const auto m1 = trace::make_shaped_market(kc, inflexible, lambda, r1);
      sat_inflex += auction::DeCloudAuction(inflexible)
                        .run(m1.snapshot, seed)
                        .satisfaction(m1.snapshot.requests.size());
      Rng r2(seed);
      const auto m2 = trace::make_shaped_market(kc, flexible, lambda, r2);
      sat_flex += auction::DeCloudAuction(flexible)
                      .run(m2.snapshot, seed)
                      .satisfaction(m2.snapshot.requests.size());
    }
    EXPECT_GE(sat_flex, sat_inflex - 0.02) << "lambda " << lambda;
  }
}

TEST(EndToEnd, ReducedTradesSmallAndShrinkingWithMarketSize) {
  // Fig. 5c: the reduced-trade fraction stays small and trends down as the
  // market grows.
  auction::AuctionConfig cfg;
  double small_ratio = 0.0;
  double large_ratio = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    trace::WorkloadConfig small;
    small.num_requests = 40;
    small.num_offers = 20;
    Rng r1(seed);
    const auto s1 = trace::make_workload(small, cfg, r1);
    small_ratio += auction::DeCloudAuction(cfg).run(s1, seed).reduced_trade_ratio();

    trace::WorkloadConfig large;
    large.num_requests = 300;
    large.num_offers = 150;
    Rng r2(seed);
    const auto s2 = trace::make_workload(large, cfg, r2);
    large_ratio += auction::DeCloudAuction(cfg).run(s2, seed).reduced_trade_ratio();
  }
  EXPECT_LE(large_ratio, small_ratio + 1e-9);
  EXPECT_LE(large_ratio / 5.0, 0.10);  // well under 10 % on large markets
}

}  // namespace
}  // namespace decloud
