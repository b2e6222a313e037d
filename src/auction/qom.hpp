// Quality-of-match heuristic — Eq. (18) of the paper.
//
//   q_(r,o) = Σ_{k ∈ K_r ∩ K_o}  σ_(r,k) · ρ'_(o,k) / (|ρ'_(o,k) − ρ'_(r,k)|² + 1)
//
// where ρ' are per-block max-normalized amounts.  The gravity-like form
// rewards offers that are both *large* (numerator) and *close* to the
// request (denominator), with the client's significance weights σ scaling
// each resource's contribution.
#pragma once

#include <vector>

#include "auction/bid.hpp"

namespace decloud::auction {

/// Per-block normalization scale: for each resource type, the maximum
/// amount appearing in any request or offer of the block (Section IV-B:
/// "we take the maximum value of the resource from offers or requests of
/// the current block as a maximum of the scale and zero as a minimum").
class BlockScale {
 public:
  BlockScale(const std::vector<Request>& requests, const std::vector<Offer>& offers);

  /// Maximum observed amount for a type (0 when the type never appears).
  [[nodiscard]] double max_of(ResourceId type) const;

  /// Normalized amount ρ' = ρ / max (0 when max is 0).
  [[nodiscard]] double normalized(ResourceId type, double amount) const;

  /// One past the largest resource id observed in the block — the row
  /// width of a dense per-bidder layout (see ScoreMatrix).
  [[nodiscard]] std::size_t dimension() const { return max_.size(); }

 private:
  std::vector<double> max_;  // indexed by ResourceId
};

/// Computes q_(r,o) under a block scale.  Returns 0 when K_r ∩ K_o = ∅
/// (such pairs are never ranked, per Section IV-B).
[[nodiscard]] double quality_of_match(const Request& r, const Offer& o, const BlockScale& scale);

/// Derives a "proximity" resource from the locations of all bids and adds
/// it to each located request/offer, so that physical closeness competes in
/// the QoM like any other resource (Section IV-B treats location/latency as
/// a resource type).  Proximity of an offer to a request is evaluated at
/// match time via the resource values this helper installs:
/// proximity = 1 / (1 + distance-to-origin-location), scaled to [0, 1].
void augment_with_proximity(MarketSnapshot& snapshot, ResourceSchema& schema,
                            Location origin, double significance = 0.5);

}  // namespace decloud::auction
