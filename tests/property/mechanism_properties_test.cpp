// Property sweeps over random markets: the economic invariants the paper
// proves (IR, strong BB, feasibility, determinism) must hold on every
// instance, not only on hand-picked ones.
#include <gtest/gtest.h>

#include "auction/mechanism.hpp"
#include "auction/verify.hpp"
#include "ledger/codec.hpp"
#include "market_fixtures.hpp"

namespace decloud::auction {
namespace {

using property::MarketParams;
using property::random_market;

struct SweepCase {
  std::uint64_t seed;
  std::size_t requests;
  std::size_t offers;
  double flexibility;
};

class MechanismSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  MarketSnapshot market() const {
    Rng rng(GetParam().seed);
    MarketParams p;
    p.num_requests = GetParam().requests;
    p.num_offers = GetParam().offers;
    p.num_clients = std::max<std::size_t>(2, GetParam().requests / 2);
    p.num_providers = std::max<std::size_t>(2, GetParam().offers / 2);
    return random_market(rng, p);
  }

  AuctionConfig config() const {
    AuctionConfig cfg;
    cfg.flexibility = GetParam().flexibility;
    return cfg;
  }
};

TEST_P(MechanismSweep, AllInvariantsHold) {
  const MarketSnapshot s = market();
  const RoundResult r = DeCloudAuction(config()).run(s, GetParam().seed ^ 0xabcdef);
  const auto report = verify_invariants(s, r, config());
  EXPECT_TRUE(report.ok()) << (report.ok() ? "" : report.violations.front());
}

TEST_P(MechanismSweep, ReplayIsExact) {
  const MarketSnapshot s = market();
  const std::uint64_t seed = GetParam().seed * 31;
  const RoundResult r = DeCloudAuction(config()).run(s, seed);
  const RoundResult replay = DeCloudAuction(config()).run(s, seed);
  EXPECT_EQ(ledger::encode_allocation(replay), ledger::encode_allocation(r));
}

TEST_P(MechanismSweep, TruthfulStaysNearOrBelowBenchmarkWelfare) {
  // The benchmark finalizes the greedy tentative allocation.  The truthful
  // pipeline usually loses welfare to trade reduction, but its verifiable
  // lottery re-packs clusters and can occasionally fit a couple more
  // trades than greedy did — hence the small upward tolerance.
  const MarketSnapshot s = market();
  AuctionConfig bench = config();
  bench.truthful = false;
  const RoundResult rt = DeCloudAuction(config()).run(s, 5);
  const RoundResult rb = DeCloudAuction(bench).run(s, 5);
  EXPECT_LE(rt.welfare, rb.welfare * 1.15 + 1e-9);
}

TEST_P(MechanismSweep, WelfareIsNonNegative) {
  // Constraint (9) + the marginal condition keep every accepted trade
  // individually welfare-positive.
  const MarketSnapshot s = market();
  const RoundResult r = DeCloudAuction(config()).run(s, 77);
  EXPECT_GE(r.welfare, -1e-9);
  for (const Match& m : r.matches) {
    EXPECT_GE(match_welfare(s.requests[m.request], s.offers[m.offer]), -1e-9);
  }
}

TEST_P(MechanismSweep, PaymentsBelowBidsRevenuesCoverNothingNegative) {
  const MarketSnapshot s = market();
  const RoundResult r = DeCloudAuction(config()).run(s, 13);
  for (const Match& m : r.matches) {
    EXPECT_LE(m.payment, s.requests[m.request].bid + 1e-9);  // client IR
    EXPECT_GE(m.payment, -1e-12);
  }
  for (const Money v : r.revenue_by_offer) EXPECT_GE(v, -1e-12);
}

TEST_P(MechanismSweep, ReducedTradesBoundedByTentative) {
  const MarketSnapshot s = market();
  const RoundResult r = DeCloudAuction(config()).run(s, 29);
  EXPECT_LE(r.reduced_trades, r.tentative_trades);
  EXPECT_LE(r.matches.size(), s.requests.size());
}

INSTANTIATE_TEST_SUITE_P(
    RandomMarkets, MechanismSweep,
    ::testing::Values(SweepCase{1, 10, 4, 1.0}, SweepCase{2, 24, 10, 1.0},
                      SweepCase{3, 50, 20, 1.0}, SweepCase{4, 24, 10, 0.8},
                      SweepCase{5, 50, 20, 0.8}, SweepCase{6, 8, 16, 1.0},
                      SweepCase{7, 100, 30, 0.9}, SweepCase{8, 3, 3, 1.0},
                      SweepCase{9, 60, 6, 1.0}, SweepCase{10, 6, 30, 0.8}));

TEST(MechanismProperty, SeedOnlyAffectsRandomizedExclusions) {
  // Different evidence seeds may shuffle the imbalance randomization but
  // never violate invariants; welfare stays in a tight band.
  Rng rng(99);
  const MarketSnapshot s = random_market(rng);
  AuctionConfig cfg;
  const RoundResult base = DeCloudAuction(cfg).run(s, 1);
  for (std::uint64_t seed = 2; seed < 12; ++seed) {
    const RoundResult r = DeCloudAuction(cfg).run(s, seed);
    EXPECT_TRUE(verify_invariants(s, r, cfg).ok());
    EXPECT_EQ(r.tentative_trades, base.tentative_trades);  // pre-random stage is seed-free
  }
}

}  // namespace
}  // namespace decloud::auction
