#include "auction/mechanism.hpp"

#include <gtest/gtest.h>

#include "auction/verify.hpp"
#include "common/rng.hpp"
#include "common/ensure.hpp"
#include "test_helpers.hpp"

namespace decloud::auction {
namespace {

using test::index_best_offers;
using test::OfferBuilder;
using test::RequestBuilder;

TEST(BestOffers, RanksFeasibleOffersByQom) {
  MarketSnapshot s;
  const Request r = RequestBuilder(0).cpu(2).memory(8).disk(20).build();
  s.requests.push_back(r);
  s.offers.push_back(OfferBuilder(0).cpu(2).memory(8).disk(20).build());    // exact fit
  s.offers.push_back(OfferBuilder(1).cpu(16).memory(64).disk(512).build()); // huge
  s.offers.push_back(OfferBuilder(2).cpu(1).memory(1).disk(1).build());     // infeasible
  const BlockScale scale(s.requests, s.offers);
  AuctionConfig cfg;
  cfg.best_offer_ratio = 0.0;  // admit all feasible
  const auto best = index_best_offers(s, 0, cfg);
  EXPECT_EQ(best, (std::vector<std::size_t>{0, 1}));  // 2 dropped as infeasible
  EXPECT_EQ(best, best_offers_reference(r, s, scale, cfg));
}

TEST(BestOffers, RatioPrunesDistantOffers) {
  MarketSnapshot s;
  const Request r = RequestBuilder(0).cpu(2).memory(8).disk(20).build();
  s.requests.push_back(r);
  s.offers.push_back(OfferBuilder(0).cpu(2).memory(8).disk(20).build());
  s.offers.push_back(OfferBuilder(1).cpu(16).memory(64).disk(512).build());
  const BlockScale scale(s.requests, s.offers);
  AuctionConfig strict;
  strict.best_offer_ratio = 0.99;
  const auto best = index_best_offers(s, 0, strict);
  EXPECT_EQ(best.size(), 1u);  // only the near-perfect match survives
  EXPECT_EQ(best, best_offers_reference(r, s, scale, strict));
}

TEST(BestOffers, CapRespected) {
  MarketSnapshot s;
  const Request r = RequestBuilder(0).build();
  s.requests.push_back(r);
  for (std::uint64_t i = 0; i < 10; ++i) s.offers.push_back(OfferBuilder(i).build());
  const BlockScale scale(s.requests, s.offers);
  AuctionConfig cfg;
  cfg.best_offer_ratio = 0.0;
  cfg.max_best_offers = 3;
  const auto best = index_best_offers(s, 0, cfg);
  EXPECT_EQ(best.size(), 3u);
  EXPECT_EQ(best, best_offers_reference(r, s, scale, cfg));
}

TEST(BestOffers, EmptyWhenNothingFeasible) {
  MarketSnapshot s;
  const Request r = RequestBuilder(0).cpu(100).build();
  s.requests.push_back(r);
  s.offers.push_back(OfferBuilder(0).build());
  const BlockScale scale(s.requests, s.offers);
  EXPECT_TRUE(index_best_offers(s, 0, AuctionConfig{}).empty());
  EXPECT_TRUE(best_offers_reference(r, s, scale, AuctionConfig{}).empty());
}

TEST(Mechanism, EmptyMarketYieldsEmptyResult) {
  const DeCloudAuction auction;
  const RoundResult r1 = auction.run(MarketSnapshot{}, 1);
  EXPECT_TRUE(r1.matches.empty());

  MarketSnapshot only_requests;
  only_requests.requests.push_back(RequestBuilder(0).build());
  EXPECT_TRUE(auction.run(only_requests, 1).matches.empty());

  MarketSnapshot only_offers;
  only_offers.offers.push_back(OfferBuilder(0).build());
  EXPECT_TRUE(auction.run(only_offers, 1).matches.empty());
}

TEST(Mechanism, MalformedBidRejected) {
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(-1.0).build());
  s.offers.push_back(OfferBuilder(0).build());
  EXPECT_THROW(DeCloudAuction{}.run(s, 1), precondition_error);
}

TEST(Mechanism, SinglePairIsReducedAway) {
  // One buyer, one seller, no z'+1: the price is v̂_z, the buyer's client
  // is excluded → no trade survives (the unavoidable DSIC cost).
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(5.0).build());
  s.offers.push_back(OfferBuilder(0).bid(0.1).build());
  const RoundResult r = DeCloudAuction{}.run(s, 1);
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.tentative_trades, 1u);
  EXPECT_EQ(r.reduced_trades, 1u);
}

TEST(Mechanism, SparePriceSettingOfferUnlocksTheTrade) {
  // A second, more expensive offer provides ĉ_{z'+1}: the price comes from
  // an unallocated bid and the single trade survives (SBBA luck case).
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(5.0).build());
  s.offers.push_back(OfferBuilder(0).bid(0.1).build());
  s.offers.push_back(OfferBuilder(1).provider(9).bid(0.2).build());
  const RoundResult r = DeCloudAuction{}.run(s, 1);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].offer, 0u);
  EXPECT_GT(r.matches[0].payment, 0.0);
  EXPECT_LE(r.matches[0].payment, 5.0 + 1e-9);  // IR
  EXPECT_EQ(r.reduced_trades, 0u);
}

TEST(Mechanism, PriceSetterClientFullyExcluded) {
  // The client whose request sets the price loses ALL its bids in the
  // mini-auction, not only the price-setting one.
  MarketSnapshot s;
  // Client 7 owns the two cheapest-valued requests; one of them is z.
  s.requests.push_back(RequestBuilder(0).client(1).cpu(1).memory(4).disk(10).bid(10.0).build());
  s.requests.push_back(RequestBuilder(1).client(7).cpu(1).memory(4).disk(10).bid(2.0).build());
  s.requests.push_back(RequestBuilder(2).client(7).cpu(1).memory(4).disk(10).bid(2.1).build());
  s.offers.push_back(OfferBuilder(0).cpu(4).memory(16).disk(100).bid(0.01).build());
  const RoundResult r = DeCloudAuction{}.run(s, 1);
  for (const Match& m : r.matches) {
    EXPECT_NE(s.requests[m.request].client, ClientId(7));
  }
}

TEST(Mechanism, BenchmarkModeKeepsAllTentativeTrades) {
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(5.0).build());
  s.offers.push_back(OfferBuilder(0).bid(0.1).build());
  AuctionConfig bench;
  bench.truthful = false;
  const RoundResult r = DeCloudAuction(bench).run(s, 1);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.reduced_trades, 0u);
  EXPECT_DOUBLE_EQ(r.matches[0].payment, 0.0);  // benchmark carries no payments
}

TEST(Mechanism, BenchmarkWelfareUpperBoundsTruthful) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    MarketSnapshot s;
    for (std::uint64_t i = 0; i < 20; ++i) {
      s.requests.push_back(RequestBuilder(i)
                               .client(i / 2)
                               .cpu(rng.uniform(0.5, 4.0))
                               .memory(rng.uniform(1.0, 16.0))
                               .disk(rng.uniform(5.0, 100.0))
                               .bid(rng.uniform(0.1, 3.0))
                               .build());
    }
    for (std::uint64_t i = 0; i < 10; ++i) {
      s.offers.push_back(OfferBuilder(i)
                             .provider(i / 2)
                             .cpu(4)
                             .memory(16)
                             .disk(100)
                             .bid(rng.uniform(0.5, 2.0))
                             .build());
    }
    AuctionConfig truthful;
    AuctionConfig bench;
    bench.truthful = false;
    const RoundResult rt = DeCloudAuction(truthful).run(s, 17);
    const RoundResult rb = DeCloudAuction(bench).run(s, 17);
    // The lottery re-pack can occasionally beat greedy by a little; the
    // benchmark is an upper bound only up to that slack.
    EXPECT_LE(rt.welfare, rb.welfare * 1.15 + 1e-9) << "trial " << trial;
  }
}

TEST(Mechanism, DeterministicForSameSeed) {
  MarketSnapshot s;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 30; ++i) {
    s.requests.push_back(
        RequestBuilder(i).client(i / 3).cpu(rng.uniform(0.5, 3.0)).bid(rng.uniform(0.1, 2.0)).build());
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    s.offers.push_back(OfferBuilder(i).bid(rng.uniform(0.2, 1.0)).build());
  }
  const RoundResult a = DeCloudAuction{}.run(s, 99);
  const RoundResult b = DeCloudAuction{}.run(s, 99);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].request, b.matches[i].request);
    EXPECT_EQ(a.matches[i].offer, b.matches[i].offer);
    EXPECT_DOUBLE_EQ(a.matches[i].payment, b.matches[i].payment);
  }
  EXPECT_DOUBLE_EQ(a.welfare, b.welfare);
}

TEST(Mechanism, AllClearingPricesPositive) {
  MarketSnapshot s;
  Rng rng(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    s.requests.push_back(RequestBuilder(i).client(i).bid(rng.uniform(0.5, 4.0)).build());
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    s.offers.push_back(OfferBuilder(i).provider(i).bid(rng.uniform(0.2, 1.5)).build());
  }
  const RoundResult r = DeCloudAuction{}.run(s, 4);
  for (const double p : r.clearing_prices) EXPECT_GT(p, 0.0);
}

TEST(Mechanism, StrongBudgetBalanceHolds) {
  MarketSnapshot s;
  Rng rng(21);
  for (std::uint64_t i = 0; i < 40; ++i) {
    s.requests.push_back(RequestBuilder(i)
                             .client(i / 4)
                             .cpu(rng.uniform(0.5, 2.0))
                             .bid(rng.uniform(0.2, 3.0))
                             .build());
  }
  for (std::uint64_t i = 0; i < 16; ++i) {
    s.offers.push_back(OfferBuilder(i).provider(i / 2).bid(rng.uniform(0.2, 1.2)).build());
  }
  const RoundResult r = DeCloudAuction{}.run(s, 6);
  EXPECT_NEAR(r.total_payments, r.total_revenue, 1e-9);
  Money sum_payments = 0.0;
  for (const Money p : r.payment_by_request) sum_payments += p;
  Money sum_revenue = 0.0;
  for (const Money v : r.revenue_by_offer) sum_revenue += v;
  EXPECT_NEAR(sum_payments, sum_revenue, 1e-9);
  EXPECT_NEAR(sum_payments, r.total_payments, 1e-9);
}

}  // namespace
}  // namespace decloud::auction
