#include "auction/audit.hpp"

#include <algorithm>

#include "auction/economics.hpp"
#include "auction/verify.hpp"

namespace decloud::auction::audit {

using decloud::audit::check;

void check_mini_auction(const MarketSnapshot& snapshot,
                        const std::vector<PricedCluster>& priced, const MiniAuction& auction,
                        const PriceQuote& quote, const std::vector<char>& cluster_done_before,
                        const std::vector<char>& tradeable_before, const RoundResult& result,
                        std::size_t first_match) {
  check(cluster_done_before.size() == priced.size() && tradeable_before.size() == priced.size(),
        "audit masks sized to the round's cluster list");
  check(first_match <= result.matches.size(), "match range well-formed");

  // --- Eq. 20: p = min over live clusters of min(v̂_z, ĉ_{z'+1}),
  // re-derived here without calling determine_price.
  double expected = kInfiniteCost;
  for (const std::size_t ci : auction.clusters) {
    check(ci < priced.size(), "auction references a known cluster");
    if (cluster_done_before[ci] || !tradeable_before[ci]) continue;
    expected = std::min(expected, std::min(priced[ci].vhat_z, priced[ci].chat_znext));
  }
  check(quote.valid == (expected < kInfiniteCost),
        "quote validity matches presence of a live tradeable cluster");
  if (!quote.valid) {
    check(first_match == result.matches.size(), "an invalid quote finalizes no matches");
    return;
  }
  const double p = quote.price;
  check(p == expected, "clearing price equals min(v̂_z, ĉ_{z'+1}) over live clusters (Eq. 20)");

  // The price-setting bid must actually exist in a live cluster.
  bool setter_found = false;
  for (const std::size_t ci : auction.clusters) {
    if (cluster_done_before[ci] || !tradeable_before[ci]) continue;
    const PricedCluster& pc = priced[ci];
    if (quote.setter_is_request) {
      setter_found = setter_found || (pc.vhat_z == p && pc.z_client == quote.client);
    } else {
      setter_found = setter_found || (pc.chat_znext == p && pc.znext_provider == quote.provider);
    }
  }
  check(setter_found, "price-setting bid exists in a live cluster of this auction");

  for (std::size_t i = first_match; i < result.matches.size(); ++i) {
    const Match& m = result.matches[i];
    check(m.unit_price == p, "finalized match carries this auction's clearing price");

    // --- Individual rationality in the cluster's normalized unit: the
    // price lies inside the traders' REPORTED bounds, ĉ_o ≤ p ≤ v̂_r.
    double vhat = 0.0;
    double chat = kInfiniteCost;
    for (const std::size_t ci : auction.clusters) {
      if (cluster_done_before[ci]) continue;
      vhat = std::max(vhat, priced[ci].econ.vhat_of(m.request));
      chat = std::min(chat, priced[ci].econ.chat_of(m.offer));
    }
    check(vhat >= p, "IR (buyer): v̂_r ≥ p for every allocated request");
    check(chat <= p, "IR (seller): ĉ_o ≤ p for every allocated offer");

    // --- IR in raw money: p_r = ν_r d_r p ≤ v_r follows from v̂_r ≥ p in
    // real arithmetic; allow one part in 10^12 for the fp round-trip.
    const Request& r = snapshot.requests[m.request];
    check(m.payment <= r.bid * (1.0 + 1e-12) + 1e-9,
          "IR (buyer, raw): payment never exceeds the reported valuation");

    // --- Trade reduction: the excluded price-setter never trades in the
    // auction that its bid priced (Section IV-C/IV-D; DSIC hinges on it).
    if (quote.setter_is_request) {
      check(r.client != quote.client, "price-setting client excluded from its own auction");
    } else {
      check(snapshot.offers[m.offer].provider != quote.provider,
            "price-setting provider excluded from its own auction");
    }
  }
}

void check_round(const MarketSnapshot& snapshot, const RoundResult& result,
                 const AuctionConfig& config) {
  const VerificationReport report =
      verify_invariants(snapshot, result, config, /*check_payments=*/config.truthful);
  if (!report.ok()) check(false, report.violations.front());
  check(result.reduced_trades <= result.tentative_trades,
        "reduced trades bounded by tentative trades");

  // verify_invariants has checked every index and the vector lengths, so
  // the exact checks below need no bounds checks of their own.
  std::vector<Money> payments(snapshot.requests.size(), 0.0);
  std::vector<Money> revenues(snapshot.offers.size(), 0.0);
  Money total = 0.0;
  for (const Match& m : result.matches) {
    payments[m.request] += m.payment;
    revenues[m.offer] += m.payment;
    total += m.payment;
  }

  // --- Strong budget balance (Theorem, Section IV): what clients pay is
  // exactly what providers receive.  All three totals are folds of the
  // same payment terms in the same (match) order, so the comparison is
  // exact — no epsilon.
  check(result.total_payments == total, "total payments reconcile with the match list");
  check(result.total_revenue == result.total_payments,
        "strong budget balance: Σ payments == Σ revenues, bitwise");
  check(result.payment_by_request == payments,
        "per-request settlement reconciles with the match list");
  check(result.revenue_by_offer == revenues, "per-offer settlement reconciles with the match list");
}

}  // namespace decloud::auction::audit
