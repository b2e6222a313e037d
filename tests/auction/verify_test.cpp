#include "auction/verify.hpp"

#include <gtest/gtest.h>

#include "auction/mechanism.hpp"
#include "test_helpers.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

/// A market with guaranteed surviving trades (spare price-setting offer).
MarketSnapshot tradeable_market() {
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(5.0).build());
  s.requests.push_back(RequestBuilder(1).client(1).bid(4.0).build());
  s.offers.push_back(OfferBuilder(0).bid(0.1).build());
  s.offers.push_back(OfferBuilder(1).provider(1).bid(0.2).build());
  s.offers.push_back(OfferBuilder(2).provider(2).bid(0.3).build());
  return s;
}

TEST(VerifyInvariants, HonestResultPasses) {
  const MarketSnapshot s = tradeable_market();
  const RoundResult r = DeCloudAuction{}.run(s, 11);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_TRUE(verify_invariants(s, r, AuctionConfig{}).ok());
}

TEST(VerifyInvariants, DetectsDoubleAllocation) {
  const MarketSnapshot s = tradeable_market();
  RoundResult r = DeCloudAuction{}.run(s, 11);
  ASSERT_FALSE(r.matches.empty());
  r.matches.push_back(r.matches.front());  // duplicate match for a request
  const auto report = verify_invariants(s, r, AuctionConfig{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("constraint 5"), std::string::npos);
}

TEST(VerifyInvariants, DetectsOutOfRangeMatch) {
  const MarketSnapshot s = tradeable_market();
  RoundResult r = DeCloudAuction{}.run(s, 11);
  Match bogus;
  bogus.request = 999;
  bogus.offer = 0;
  r.matches.push_back(bogus);
  EXPECT_FALSE(verify_invariants(s, r, AuctionConfig{}).ok());
}

TEST(VerifyInvariants, DetectsTemporalViolation) {
  MarketSnapshot s = tradeable_market();
  RoundResult r = DeCloudAuction{}.run(s, 11);
  ASSERT_FALSE(r.matches.empty());
  // Shrink the matched offer's window after the fact.
  s.offers[r.matches[0].offer].window_end = s.requests[r.matches[0].request].window_end - 1;
  const auto report = verify_invariants(s, r, AuctionConfig{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("temporal"), std::string::npos);
}

TEST(VerifyInvariants, DetectsOverpayment) {
  const MarketSnapshot s = tradeable_market();
  RoundResult r = DeCloudAuction{}.run(s, 11);
  ASSERT_FALSE(r.matches.empty());
  r.matches[0].payment = s.requests[r.matches[0].request].bid + 1.0;  // pay above bid
  const auto report = verify_invariants(s, r, AuctionConfig{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("IR"), std::string::npos);
}

TEST(VerifyInvariants, DetectsBudgetImbalance) {
  const MarketSnapshot s = tradeable_market();
  RoundResult r = DeCloudAuction{}.run(s, 11);
  ASSERT_FALSE(r.matches.empty());
  r.revenue_by_offer[r.matches[0].offer] += 0.5;  // provider paid out of thin air
  const auto report = verify_invariants(s, r, AuctionConfig{});
  ASSERT_FALSE(report.ok());
}

TEST(VerifyInvariants, DetectsPaymentToLoser) {
  MarketSnapshot s = tradeable_market();
  // A request that can afford nothing: guaranteed loser.
  s.requests.push_back(RequestBuilder(2).client(9).bid(1e-9).build());
  RoundResult r = DeCloudAuction{}.run(s, 11);
  std::vector<char> matched(s.requests.size(), 0);
  for (const auto& m : r.matches) matched[m.request] = 1;
  ASSERT_FALSE(matched[2]);  // it must lose
  r.payment_by_request[2] = 0.7;  // charge the loser anyway
  EXPECT_FALSE(verify_invariants(s, r, AuctionConfig{}).ok());
}

TEST(VerifyInvariants, BenchmarkModeSkipsPaymentChecks) {
  const MarketSnapshot s = tradeable_market();
  AuctionConfig bench;
  bench.truthful = false;
  const RoundResult r = DeCloudAuction(bench).run(s, 11);
  EXPECT_TRUE(verify_invariants(s, r, bench, /*check_payments=*/false).ok());
}

TEST(VerifyInvariants, ReportsTruncatedSettlementVectors) {
  // A short vector is a violation, found before anything indexes it.  The
  // last request loses, and the IR check reads a loser's payment entry.
  MarketSnapshot s = tradeable_market();
  s.requests.push_back(RequestBuilder(2).client(9).bid(1e-9).build());
  const RoundResult honest = DeCloudAuction{}.run(s, 11);
  for (const Match& m : honest.matches) ASSERT_NE(m.request, 2u);

  RoundResult r = honest;
  // A fresh, exactly sized buffer, so a read past its end leaves the
  // allocation (and ASan sees it).
  r.payment_by_request = std::vector<Money>(honest.payment_by_request.begin(),
                                            honest.payment_by_request.end() - 1);
  auto report = verify_invariants(s, r, AuctionConfig{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("settlement vectors"), std::string::npos);

  r = honest;
  r.revenue_by_offer.clear();
  report = verify_invariants(s, r, AuctionConfig{});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("settlement vectors"), std::string::npos);
}

}  // namespace
}  // namespace decloud::auction
