// Allocation results, resource-fraction accounting, and capacity tracking.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "auction/bid.hpp"
#include "common/types.hpp"

namespace decloud::auction {

/// A finalized match x_(r,o) = 1 with its price.
struct Match {
  std::size_t request = 0;  ///< index into MarketSnapshot::requests
  std::size_t offer = 0;    ///< index into MarketSnapshot::offers
  /// φ_(r,o): fraction of the offer consumed (Eq. 6, clamped to [0, 1]).
  double fraction = 0.0;
  /// Client payment p_r = ν_r · d_r · p (Eq. 19 with the duration scale
  /// restored; see DESIGN.md §3).  Zero in benchmark mode.
  Money payment = 0.0;
  /// The mini-auction clearing price p that produced the payment.
  double unit_price = 0.0;
  /// Amounts actually granted from the offer's capacity.  Equals the
  /// request's demand except under flexible matching, where a co-located
  /// container may be granted as little as flexibility·ρ_(r,k); recording
  /// the grant makes constraint (7) verifiable without replaying the
  /// assignment order.
  ResourceVector granted;
};

/// Resource fraction φ_(r,o) per Eq. (6): time share times the mean
/// per-resource demand share over K_(r,o).  Component shares use the
/// *granted* amount min(ρ_rk, ρ_ok), which equals ρ_rk whenever the match
/// was feasible without flexibility.  Result clamped to [0, 1].
[[nodiscard]] double resource_fraction(const Request& r, const Offer& o);

/// Welfare of one match: v_r − φ_(r,o) · c_o (the (r,o) term of Eq. 3),
/// evaluated at TRUE valuations/costs, which in a DSIC run equal the bids.
[[nodiscard]] Money match_welfare(const Request& r, const Offer& o);

/// Outcome of one allocation round (one block β).
struct RoundResult {
  std::vector<Match> matches;

  /// Matches the greedy pass produced before trade reduction — the paper's
  /// denominator for the reduced-trades percentage (Fig. 5c).
  std::size_t tentative_trades = 0;
  /// Tentative matches lost to trade reduction / price filtering.
  std::size_t reduced_trades = 0;

  /// Clusters whose allocation was re-drawn by the verifiable lottery
  /// (supply/demand imbalance, Section IV-D).  Observable so tests can
  /// assert the lottery path actually ran.
  std::size_t lottery_clusters = 0;

  /// Σ over final matches of v_r − φ c_o (Eq. 3).
  Money welfare = 0.0;
  /// Σ p_r over clients and Σ π_o over providers.  Strong budget balance
  /// makes these equal by construction.
  Money total_payments = 0.0;
  Money total_revenue = 0.0;

  /// Per-participant settlement (index-aligned with the snapshot).
  std::vector<Money> payment_by_request;
  std::vector<Money> revenue_by_offer;

  /// Clearing prices of the processed mini-auctions, in processing order.
  std::vector<double> clearing_prices;

  /// Fraction of requests allocated — the paper's *satisfaction* metric
  /// (Fig. 5d/5e).
  [[nodiscard]] double satisfaction(std::size_t total_requests) const;

  /// reduced / tentative, in [0, 1]; 0 when nothing was tradeable.
  [[nodiscard]] double reduced_trade_ratio() const;
};

/// Canonical JSON rendering of a RoundResult: stable field order, every
/// double printed with %.17g so distinct bit patterns render distinctly.
/// Two results serialize to the same bytes iff they are field-for-field
/// bit-identical — the byte-diff oracle CI uses to compare runs at
/// different thread counts (and any other pair of replays).
[[nodiscard]] std::string round_result_json(const RoundResult& result);

/// Tracks remaining capacity of every offer across clusters and
/// mini-auctions so constraint (7) (Σ_r φ_(r,o,k) ≤ 1 per resource) holds
/// globally for the whole block.
class CapacityTracker {
 public:
  explicit CapacityTracker(const std::vector<Offer>& offers);

  /// True iff the offer still has room for the request: every strict
  /// resource fully available, every flexible one at ≥ flexibility·ρ_rk.
  [[nodiscard]] bool can_host(std::size_t offer, const Request& r, double flexibility) const;

  /// Consumes capacity; returns the exact amounts taken (min of demand and
  /// remaining per resource) so the caller can undo with release().
  ResourceVector consume(std::size_t offer, const Request& r);

  /// Returns previously consumed amounts to the offer.
  void release(std::size_t offer, const ResourceVector& consumed);

  [[nodiscard]] const ResourceVector& remaining(std::size_t offer) const {
    return remaining_[offer];
  }

 private:
  std::vector<ResourceVector> remaining_;
};

}  // namespace decloud::auction
