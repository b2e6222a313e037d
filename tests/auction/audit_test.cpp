#include "auction/audit.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <string>

#include "auction/mechanism.hpp"
#include "common/rng.hpp"
#include "test_helpers.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

// The audit functions are always compiled (audit::kEnabled only gates the
// call sites inside the mechanism), so these tests run in every build
// configuration.

// --- check_round -----------------------------------------------------------

MarketSnapshot trading_market() {
  // The SBBA luck case: a spare, more expensive offer provides ĉ_{z'+1},
  // so the single trade survives and the round carries a real payment.
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(5.0).build());
  s.offers.push_back(OfferBuilder(0).bid(0.1).build());
  s.offers.push_back(OfferBuilder(1).provider(9).bid(0.2).build());
  return s;
}

TEST(AuditRound, PassesOnRealMechanismOutput) {
  const MarketSnapshot s = trading_market();
  const RoundResult r = DeCloudAuction{}.run(s, 1);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_NO_THROW(audit::check_round(s, r, AuctionConfig{}));
}

TEST(AuditRound, PassesOnLargeRandomMarket) {
  Rng rng(17);
  MarketSnapshot s;
  for (std::uint64_t i = 0; i < 30; ++i) {
    s.requests.push_back(RequestBuilder(i)
                             .client(i / 3)
                             .cpu(rng.uniform(0.5, 4.0))
                             .memory(rng.uniform(1.0, 16.0))
                             .disk(rng.uniform(5.0, 100.0))
                             .bid(rng.uniform(0.1, 3.0))
                             .build());
  }
  for (std::uint64_t i = 0; i < 15; ++i) {
    s.offers.push_back(OfferBuilder(i).provider(i / 2).bid(rng.uniform(0.01, 0.5)).build());
  }
  const RoundResult r = DeCloudAuction{}.run(s, 99);
  EXPECT_NO_THROW(audit::check_round(s, r, AuctionConfig{}));
}

TEST(AuditRound, CatchesBudgetImbalance) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  r.total_revenue += 0.25;  // providers claim more than clients paid
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, CatchesTotalPaymentsDrift) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  r.total_payments += 1e-9;  // even one ulp-scale drift must be caught
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, CatchesSettlementTampering) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  ASSERT_FALSE(r.payment_by_request.empty());
  r.payment_by_request[0] += 0.5;
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, CatchesDoubleAllocation) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  ASSERT_FALSE(r.matches.empty());
  r.matches.push_back(r.matches[0]);  // same request trades twice
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, CatchesFractionOutOfRange) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  ASSERT_FALSE(r.matches.empty());
  r.matches[0].fraction = 1.5;
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, CatchesCounterInversion) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  r.reduced_trades = r.tentative_trades + 1;
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, CatchesMisalignedSettlementVectors) {
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  r.payment_by_request.pop_back();
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

TEST(AuditRound, AuditErrorIsAnInvariantError) {
  // Miners wrap whole-round verification in one invariant_error handler;
  // audit failures must flow through it.
  const MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  r.total_revenue += 1.0;
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), invariant_error);
}

// Tampered results that only the verify_invariants half of check_round
// catches (the settlement still reconciles exactly), plus a NaN payment,
// which verify_invariants reports as non-finite.
struct RoundTamper {
  const char* name;
  void (*apply)(MarketSnapshot&, RoundResult&);
};

// Print the case by name: gtest's default dumps the struct's bytes, two
// pointers that change with every build, and that dump becomes part of the
// test's CTest name.
void PrintTo(const RoundTamper& t, std::ostream* os) { *os << t.name; }

class AuditRoundRejects : public ::testing::TestWithParam<RoundTamper> {};

TEST_P(AuditRoundRejects, Tamper) {
  MarketSnapshot s = trading_market();
  RoundResult r = DeCloudAuction{}.run(s, 1);
  ASSERT_EQ(r.matches.size(), 1u);
  GetParam().apply(s, r);
  EXPECT_THROW(audit::check_round(s, r, AuctionConfig{}), audit::audit_error);
}

INSTANTIATE_TEST_SUITE_P(
    AuditRound, AuditRoundRejects,
    ::testing::Values(
        RoundTamper{"OversubscribedOffer",
                    [](MarketSnapshot& s, RoundResult& r) {
                      // A second, unpaid request on the same offer fits
                      // alone but not next to the first (constraint 7).
                      s.requests.push_back(RequestBuilder(1).cpu(4.0).build());
                      r.payment_by_request.push_back(0.0);
                      r.matches.push_back({.request = 1,
                                           .offer = r.matches[0].offer,
                                           .fraction = 1.0,
                                           .granted = s.requests[1].resources});
                    }},
        RoundTamper{"WindowViolation",
                    [](MarketSnapshot& s, RoundResult& r) {
                      // Constraints (10)/(11).
                      const Match& m = r.matches[0];
                      s.offers[m.offer].window_end = s.requests[m.request].window_end - 1;
                    }},
        RoundTamper{"OverGrant",
                    [](MarketSnapshot& s, RoundResult& r) {
                      Match& m = r.matches[0];
                      m.granted.set(ResourceSchema::kCpu,
                                    s.requests[m.request].resources.get(ResourceSchema::kCpu) + 1.0);
                    }},
        RoundTamper{"NaNPayment",
                    [](MarketSnapshot&, RoundResult& r) {
                      r.matches[0].payment = std::numeric_limits<Money>::quiet_NaN();
                    }}),
    [](const ::testing::TestParamInfo<RoundTamper>& info) { return std::string(info.param.name); });

// --- check_mini_auction ----------------------------------------------------

/// A tradeable cluster with economics for request 0 (v̂ = 5) and offer 0
/// (ĉ = 1), mirroring the fixture idiom of trade_reduction_test.
PricedCluster audit_cluster(double vhat_z, double chat_znext, std::uint64_t client,
                            std::uint64_t znext_provider) {
  PricedCluster pc;
  pc.cluster_index = 0;
  pc.vhat_z = vhat_z;
  pc.chat_zprime = 1.0;
  pc.chat_znext = chat_znext;
  pc.z_client = ClientId(client);
  pc.znext_provider = ProviderId(znext_provider);
  pc.tentative.resize(1);
  pc.econ.requests.push_back({.request = 0, .nu = 1.0, .vhat = 5.0});
  pc.econ.offers.push_back({.offer = 0, .nu = 1.0, .chat = 1.0});
  pc.econ.rebuild_index();
  return pc;
}

MarketSnapshot one_pair_snapshot() {
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).bid(5.0).build());
  s.offers.push_back(OfferBuilder(0).bid(0.1).build());
  return s;
}

TEST(AuditMiniAuction, AcceptsInvalidQuoteWithNoTrades) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced(1);  // nothing tradeable
  const MiniAuction auction{.clusters = {0}, .welfare = 0.0};
  const PriceQuote quote;  // valid == false
  const RoundResult result;
  EXPECT_NO_THROW(audit::check_mini_auction(s, priced, auction, quote, {0}, {0}, result, 0));
}

TEST(AuditMiniAuction, RejectsTradesUnderInvalidQuote) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced(1);
  const MiniAuction auction{.clusters = {0}, .welfare = 0.0};
  const PriceQuote quote;  // invalid — yet a match claims to be finalized
  RoundResult result;
  result.matches.push_back({.request = 0, .offer = 0, .fraction = 1.0, .payment = 1.0});
  EXPECT_THROW(audit::check_mini_auction(s, priced, auction, quote, {0}, {0}, result, 0),
               audit::audit_error);
}

TEST(AuditMiniAuction, AcceptsEq20Price) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, kInfiniteCost, 42, 0)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  PriceQuote quote;
  quote.valid = true;
  quote.price = 5.0;  // min(v̂_z = 5, ĉ_{z'+1} = ∞)
  quote.setter_is_request = true;
  quote.client = ClientId(42);
  const RoundResult result;  // the setter's trade was reduced away
  EXPECT_NO_THROW(audit::check_mini_auction(s, priced, auction, quote, {0}, {1}, result, 0));
}

TEST(AuditMiniAuction, RejectsWrongClearingPrice) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, kInfiniteCost, 42, 0)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  PriceQuote quote;
  quote.valid = true;
  quote.price = 4.0;  // Eq. 20 demands 5.0
  quote.setter_is_request = true;
  quote.client = ClientId(42);
  const RoundResult result;
  EXPECT_THROW(audit::check_mini_auction(s, priced, auction, quote, {0}, {1}, result, 0),
               audit::audit_error);
}

TEST(AuditMiniAuction, RejectsPhantomPriceSetter) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, kInfiniteCost, 42, 0)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  PriceQuote quote;
  quote.valid = true;
  quote.price = 5.0;
  quote.setter_is_request = true;
  quote.client = ClientId(99);  // no live cluster has this price-setting client
  const RoundResult result;
  EXPECT_THROW(audit::check_mini_auction(s, priced, auction, quote, {0}, {1}, result, 0),
               audit::audit_error);
}

/// Offer-side setter at price `p`: ĉ_{z'+1} = p from provider 7, the lucky
/// SBBA case where a finalized match is expected.
PriceQuote offer_side_quote(double p, std::uint64_t provider = 7) {
  PriceQuote quote;
  quote.valid = true;
  quote.price = p;
  quote.setter_is_request = false;
  quote.provider = ProviderId(provider);
  return quote;
}

TEST(AuditMiniAuction, AcceptsIRCompliantMatch) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, 2.0, 42, 7)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  RoundResult result;
  result.matches.push_back(
      {.request = 0, .offer = 0, .fraction = 0.5, .payment = 4.0, .unit_price = 2.0});
  EXPECT_NO_THROW(
      audit::check_mini_auction(s, priced, auction, offer_side_quote(2.0), {0}, {1}, result, 0));
}

TEST(AuditMiniAuction, RejectsForeignUnitPrice) {
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, 2.0, 42, 7)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  RoundResult result;
  result.matches.push_back(
      {.request = 0, .offer = 0, .fraction = 0.5, .payment = 4.0, .unit_price = 3.0});
  EXPECT_THROW(
      audit::check_mini_auction(s, priced, auction, offer_side_quote(2.0), {0}, {1}, result, 0),
      audit::audit_error);
}

TEST(AuditMiniAuction, RejectsPriceAboveBuyerBound) {
  // Clearing at 6 violates v̂_r = 5 ≥ p even though Eq. 20 is satisfied by
  // the (corrupt) cluster quantities — IR is checked independently.
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(7.0, 6.0, 42, 7)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  RoundResult result;
  result.matches.push_back(
      {.request = 0, .offer = 0, .fraction = 0.5, .payment = 4.0, .unit_price = 6.0});
  EXPECT_THROW(
      audit::check_mini_auction(s, priced, auction, offer_side_quote(6.0), {0}, {1}, result, 0),
      audit::audit_error);
}

TEST(AuditMiniAuction, RejectsPaymentAboveReportedValuation) {
  const MarketSnapshot s = one_pair_snapshot();  // request bids 5.0 raw
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, 2.0, 42, 7)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  RoundResult result;
  result.matches.push_back(
      {.request = 0, .offer = 0, .fraction = 0.5, .payment = 6.0, .unit_price = 2.0});
  EXPECT_THROW(
      audit::check_mini_auction(s, priced, auction, offer_side_quote(2.0), {0}, {1}, result, 0),
      audit::audit_error);
}

TEST(AuditMiniAuction, RejectsExcludedProviderTrading) {
  // Offer 0's provider (id 0) set the price — trade reduction must have
  // excluded it, so its finalized match is a violation.
  const MarketSnapshot s = one_pair_snapshot();
  const std::vector<PricedCluster> priced = {audit_cluster(5.0, 2.0, 42, 0)};
  const MiniAuction auction{.clusters = {0}, .welfare = 1.0};
  RoundResult result;
  result.matches.push_back(
      {.request = 0, .offer = 0, .fraction = 0.5, .payment = 4.0, .unit_price = 2.0});
  EXPECT_THROW(
      audit::check_mini_auction(s, priced, auction, offer_side_quote(2.0, 0), {0}, {1}, result, 0),
      audit::audit_error);
}

}  // namespace
}  // namespace decloud::auction
