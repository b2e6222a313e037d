// Classic unit-good double auctions: McAfee (1992) and the strongly
// budget-balanced variant SBBA (Segal-Halevi et al., 2016).
//
// DeCloud's mechanism generalizes these to heterogeneous goods; we keep the
// originals as reference substrates: the unit tests replay Figs. 3 and 4 of
// the paper against them and check that the unit-good core is exactly
// truthful, which the DSIC study (EXPERIMENTS.md E7) relies on.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace decloud::auction {

/// A unit-demand buyer or unit-supply seller in the classic setting.
struct UnitBid {
  std::size_t participant = 0;  ///< caller-side id (index into their lists)
  Money value = 0.0;            ///< buyer valuation v or seller cost c
};

/// Result of a classic double auction.
struct UnitAuctionResult {
  /// Trading pairs: (buyer participant, seller participant).
  std::vector<std::pair<std::size_t, std::size_t>> trades;
  /// Price every trading buyer pays.
  Money buyer_price = 0.0;
  /// Price every trading seller receives.  Equal to buyer_price in the
  /// strongly budget-balanced variants; may differ in McAfee's
  /// trade-reduction case (the auctioneer keeps the spread).
  Money seller_price = 0.0;
  /// Number of efficient trades sacrificed to preserve truthfulness.
  std::size_t reduced_trades = 0;
  /// Break-even index z (0-based count of efficient pairs); SIZE_MAX when
  /// no trade is possible.
  std::size_t break_even = SIZE_MAX;

  [[nodiscard]] Money budget_surplus() const {
    return (buyer_price - seller_price) * static_cast<Money>(trades.size());
  }
};

/// McAfee's dominant-strategy double auction (JET 1992).  Buyers are sorted
/// by descending valuation, sellers by ascending cost; z is the last pair
/// with v_z ≥ c_z.  If p = (v_{z+1} + c_{z+1})/2 ∈ [c_z, v_z], all z pairs
/// trade at p (strongly budget balanced); otherwise pair z is excluded,
/// buyers pay v_z and sellers receive c_z (the auctioneer keeps the
/// difference).
[[nodiscard]] UnitAuctionResult mcafee_auction(std::vector<UnitBid> buyers,
                                               std::vector<UnitBid> sellers);

/// SBBA (Segal-Halevi, Hassidim, Aumann 2016): the strongly budget balanced
/// variant used by DeCloud — p = min(v_z, c_{z+1}) with c_{z+1} = ∞ when no
/// extra seller exists; the price-setting participant is excluded, and if a
/// buyer set the price the longest side is trimmed by lottery (we expose
/// the deterministic first-k rule here; DeCloud proper randomizes from the
/// block evidence).
[[nodiscard]] UnitAuctionResult sbba_auction(std::vector<UnitBid> buyers,
                                             std::vector<UnitBid> sellers);

}  // namespace decloud::auction
