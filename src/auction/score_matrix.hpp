// Dense precompute for the quality-of-match heuristic (Eq. 18).
//
// quality_of_match walks two sparse sorted entry lists per (request, offer)
// pair.  ScoreMatrix flattens every bidder's sparse resources into a dense,
// BlockScale-normalized row-major matrix over the block's resource ids, so
// scoring a pair is one contiguous walk over the request's declared types:
//
//   q = Σ_{k ∈ K_r}  σ_r[k] · ρ'_o[k] / ((ρ'_o[k] − ρ'_r[k])² + 1)
//
// taken in ascending-id order.  A term is non-zero only when BOTH sides
// declare type k; every term the sparse intersection walk skips evaluates
// to exactly +0.0 (ρ'_o[k] is zero), so the fold is bit-identical to
// quality_of_match.  The ledger's collective verification replays
// allocations, so bit-identity is mandatory, not an optimization nicety
// (Section III).  CandidateIndex (candidate_index.hpp) reads the rows below
// to build its bounds, masks and per-cell column panels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "auction/bid.hpp"
#include "auction/qom.hpp"

namespace decloud::auction {

class ScoreMatrix {
 public:
  /// Flattens the snapshot under the given block scale, which defines the
  /// normalization and the row width (CandidateIndex builds both from one
  /// snapshot).
  ScoreMatrix(const MarketSnapshot& snapshot, const BlockScale& scale);

  /// q_(r,o) computed by walking the request's declared types (ascending)
  /// against the offer's dense row — bit-identical to
  /// quality_of_match(requests[r], offers[o], scale).
  [[nodiscard]] double score_sparse(std::size_t request, std::size_t offer) const;

  /// Row width: one column per resource id observed in the block.
  [[nodiscard]] std::size_t width() const { return width_; }

  /// Dense per-bidder rows (length width()): ρ'_r, σmask_r, ρ'_o.  The
  /// candidate index reads these to build its bounds and masks.
  [[nodiscard]] const double* request_norm_row(std::size_t r) const {
    return req_norm_.data() + r * width_;
  }
  [[nodiscard]] const double* request_sig_row(std::size_t r) const {
    return req_sig_.data() + r * width_;
  }
  [[nodiscard]] const double* offer_norm_row(std::size_t o) const {
    return off_norm_.data() + o * width_;
  }

  /// The request's declared resource ids, ascending — the non-zero columns
  /// of request_sig_row (σ ∈ (0, 1] for every declared type).
  [[nodiscard]] std::span<const ResourceId> request_types(std::size_t r) const {
    return {req_types_.data() + req_types_offset_[r],
            req_types_offset_[r + 1] - req_types_offset_[r]};
  }

 private:
  std::size_t width_ = 0;
  std::vector<double> req_norm_;    // R×W: ρ'_r, 0 for undeclared types
  std::vector<double> req_sig_;     // R×W: σ_r masked by declaration
  std::vector<double> off_norm_;    // O×W: ρ'_o, 0 for undeclared types
  std::vector<ResourceId> req_types_;          // concatenated declared ids
  std::vector<std::size_t> req_types_offset_;  // R+1 offsets into req_types_
};

}  // namespace decloud::auction
