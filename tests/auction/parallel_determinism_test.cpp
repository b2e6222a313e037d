// The parallel matching pipeline must be invisible in the outcome: for any
// thread count, DeCloudAuction::run returns a byte-identical RoundResult.
// The ledger's collective verification (Section III) replays allocations on
// miners with arbitrary core counts, so this is a consensus requirement,
// not a nicety.
#include <gtest/gtest.h>

#include "auction/mechanism.hpp"
#include "common/thread_pool.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

/// Field-by-field exact equality — no tolerances anywhere.
void expect_identical(const RoundResult& a, const RoundResult& b, const std::string& label) {
  ASSERT_EQ(a.matches.size(), b.matches.size()) << label;
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    const Match& ma = a.matches[i];
    const Match& mb = b.matches[i];
    EXPECT_EQ(ma.request, mb.request) << label << " match " << i;
    EXPECT_EQ(ma.offer, mb.offer) << label << " match " << i;
    EXPECT_EQ(ma.fraction, mb.fraction) << label << " match " << i;
    EXPECT_EQ(ma.payment, mb.payment) << label << " match " << i;
    EXPECT_EQ(ma.unit_price, mb.unit_price) << label << " match " << i;
    EXPECT_EQ(ma.granted, mb.granted) << label << " match " << i;
  }
  EXPECT_EQ(a.tentative_trades, b.tentative_trades) << label;
  EXPECT_EQ(a.reduced_trades, b.reduced_trades) << label;
  EXPECT_EQ(a.lottery_clusters, b.lottery_clusters) << label;
  EXPECT_EQ(a.welfare, b.welfare) << label;
  EXPECT_EQ(a.total_payments, b.total_payments) << label;
  EXPECT_EQ(a.total_revenue, b.total_revenue) << label;
  EXPECT_EQ(a.payment_by_request, b.payment_by_request) << label;
  EXPECT_EQ(a.revenue_by_offer, b.revenue_by_offer) << label;
  EXPECT_EQ(a.clearing_prices, b.clearing_prices) << label;
}

MarketSnapshot random_market(std::size_t requests, std::size_t offers, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.num_requests = requests;
  wc.num_offers = offers;
  Rng rng(seed);
  return trace::make_workload(wc, AuctionConfig{}, rng);
}

void expect_thread_invariant(const MarketSnapshot& snapshot, const std::string& label,
                             bool truthful = true) {
  for (const std::uint64_t seed : {1u, 99u, 123456u}) {
    AuctionConfig serial;
    serial.threads = 1;
    serial.truthful = truthful;
    const RoundResult base = DeCloudAuction(serial).run(snapshot, seed);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8},
                                      ThreadPool::default_workers()}) {
      AuctionConfig cfg = serial;
      cfg.threads = threads;
      const RoundResult got = DeCloudAuction(cfg).run(snapshot, seed);
      expect_identical(base, got,
                       label + " seed=" + std::to_string(seed) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminismTest, SmallMarket) {
  expect_thread_invariant(random_market(16, 8, 1), "small");
}

TEST(ParallelDeterminismTest, MidMarket) {
  expect_thread_invariant(random_market(64, 32, 2), "mid");
}

TEST(ParallelDeterminismTest, LargeMarket) {
  expect_thread_invariant(random_market(200, 100, 3), "large");
}

TEST(ParallelDeterminismTest, ImbalancedMarketExercisesLottery) {
  // Heavy demand surplus: many near-identical requests chasing few offers
  // forces the verifiable lottery (Section IV-D) to re-draw allocations.
  const auto snapshot = random_market(96, 8, 4);
  AuctionConfig serial;
  serial.threads = 1;
  const RoundResult probe = DeCloudAuction(serial).run(snapshot, 7);
  ASSERT_GT(probe.lottery_clusters, 0u)
      << "market does not trigger the lottery path; the test lost its teeth";
  expect_thread_invariant(snapshot, "imbalanced");
}

TEST(ParallelDeterminismTest, NonTruthfulBenchmarkPath) {
  expect_thread_invariant(random_market(64, 32, 5), "benchmark", /*truthful=*/false);
}

TEST(ParallelDeterminismTest, PrunedPathThreadInvariant) {
  // The CandidateIndex scan order and early-termination tests depend only
  // on snapshot data, never on worker scheduling (DESIGN.md §3g) — on a
  // wide book and on a book of 8 offers alike.
  expect_thread_invariant(random_market(200, 100, 3), "pruned");
  expect_thread_invariant(random_market(96, 8, 4), "pruned-imbalanced");
}

TEST(ParallelDeterminismTest, OfferHeavyMarket) {
  expect_thread_invariant(random_market(120, 90, 9), "offer-heavy");
}

TEST(ParallelDeterminismTest, DefaultThreadsMatchesSerial) {
  // threads = 0 resolves to hardware_concurrency — whatever that is on the
  // runner, the outcome must equal the serial path.
  const auto snapshot = random_market(80, 40, 6);
  AuctionConfig serial;
  serial.threads = 1;
  AuctionConfig dflt;
  dflt.threads = 0;
  const RoundResult a = DeCloudAuction(serial).run(snapshot, 11);
  const RoundResult b = DeCloudAuction(dflt).run(snapshot, 11);
  expect_identical(a, b, "default-threads");
}

}  // namespace
}  // namespace decloud::auction
