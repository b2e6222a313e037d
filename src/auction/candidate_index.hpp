// Candidate-pruning index over the bidding-language feature space — the
// million-bid matching core (DESIGN.md §3g).
//
// Ranking every (request, offer) pair is O(R·O) per round.  CandidateIndex
// is the one production best-offer path (DeCloudAuction::run,
// trace::assign_valuations); it cuts the per-request work to a shortlist
// by exploiting four structural facts of the bidding language:
//
//   1. TIME WINDOW — an offer is feasible only when its availability
//      window contains the request's service window (constraints 10/11),
//      so offers are partitioned into a grid of cells bucketed by
//      (window_start, window_end) quantiles; any cell whose minimum start
//      exceeds t_r⁻ or whose maximum end falls short of t_r⁺ is skipped
//      without touching its offers.
//   2. DOMINANT RESOURCE TYPES — q_(r,o) > 0 requires a type that BOTH
//      sides declare with positive normalized amount, so every offer (and
//      every cell, as the union) carries a 64-bit type mask; a cell or
//      candidate whose mask misses the request's mask is skipped exactly
//      (collisions only ever cause a harmless extra scan, never a skip).
//   3. QoM UPPER BOUND — every Eq. 18 term obeys
//          σ_(r,k) · ρ'_(o,k) / (|ρ'_(o,k) − ρ'_(r,k)|² + 1)  ≤  ρ'_(o,k)
//      (σ ≤ 1, denominator ≥ 1), so ub_o = Σ_k ρ'_(o,k) bounds q_(r,o)
//      for EVERY request.  Cells keep their offers sorted by descending
//      ub; the query visits active cells in descending request-aware
//      bound order and, inside a cell, scores fixed-size member blocks
//      with a k-major vectorized kernel over the cell's own member-column
//      transpose.  Once the bounded top-k selection is full, a cell whose
//      bound — or a block whose leading static ub — is strictly below the
//      current k-th q ends the scan / the cell: nothing it holds can
//      enter the best set.  The static bound holds for the *computed*
//      doubles too: ub and q are ascending-k left folds of term-wise
//      dominating sequences, and IEEE-754 rounding is monotone.
//
//   4. TIE-GROUP DEDUP — offers identical in (window, min_reputation,
//      normalized resource row) are exact ties: equal q against EVERY
//      request (q is a function of the normalized rows only), identical
//      feasibility verdicts (feasible() reads only window, the reputation
//      threshold and amounts, and equal normalized rows imply equal
//      amounts under the shared BlockScale), so they rank among
//      themselves purely by (submitted, id) — the selector's own
//      tie-break.  Catalog-shaped markets (the EC2 workload has four
//      instance profiles and one availability window) collapse to a
//      handful of such groups, and only the first max_best_offers members
//      of a group can ever appear in a best set: any later member would
//      need its predecessors selected too, overflowing the cap.  The
//      index therefore keeps only the first kGroupCap members of each
//      group in the scan cells; the remainder go to an overflow list that
//      is consulted only under a config with max_best_offers > kGroupCap.
//
// Location rides on (2)/(3) for free: augment_with_proximity turns
// physical closeness into an ordinary resource, so an offer's grid cell
// is encoded in its proximity column — its mask bit and its ub share —
// and far-away offers simply carry low bounds.
//
// On top of the static per-offer bound the query computes one
// request-aware bound per cell from the cell's per-type maxima
// (max over op ≤ M of op/((op−rp)²+1), attained at op* = √(rp²+1); the
// closed form is evaluated per declared type and inflated by a 1e-9
// relative slack that dwarfs any floating-point rounding), which retires
// whole cells long before their static-ub cursors drain.
//
// EXACTNESS: the query returns byte-identical best-offer sets to
// best_offers_reference (mechanism.hpp), the full-sort oracle, for every
// request — all pruning rules only ever discard offers that are
// infeasible, score exactly +0.0, or provably cannot displace the current
// top-k (see pruned_scoring_test and the §3g proof sketch).  The scan
// order and every comparison depend only on snapshot data, so results are
// also independent of thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "auction/bid.hpp"
#include "auction/config.hpp"
#include "auction/score_matrix.hpp"

namespace decloud::auction {

class CandidateIndex {
 public:
  /// Tie-group members beyond this rank are kept out of the scan cells
  /// (structural fact 4 above): exact for any config with
  /// max_best_offers ≤ kGroupCap; larger caps fall back to scanning the
  /// overflow list too.
  static constexpr std::size_t kGroupCap = 16;

  /// Builds the index for one snapshot: its BlockScale and ScoreMatrix,
  /// then the bounds, masks and cells over them.  The snapshot must
  /// outlive the index; queries read its bids.
  explicit CandidateIndex(const MarketSnapshot& snapshot);

  /// Per-query mutable state, reusable across requests (and owned per
  /// worker thread in the fan-out) so the hot loop never allocates.
  struct Scratch {
    struct Active {
      std::size_t cell = 0;
      double bound = 0.0;  ///< request-aware cell bound (slack-inflated)
    };
    std::vector<Active> active;  // activated cells, (bound desc, cell asc)
    std::vector<double> acc;     // block accumulator panel
    /// Candidates the last best_offers() query scored: kernel lanes of
    /// every scanned block plus each score_sparse call (overflow offers).
    /// A deterministic work count for the score span.
    std::size_t scored = 0;
  };

  /// The best-offer query for snapshot request `request`: bit-identical
  /// to best_offers_reference for every input.
  [[nodiscard]] std::vector<std::size_t> best_offers(std::size_t request,
                                                     const AuctionConfig& config,
                                                     Scratch& scratch) const;

  /// The snapshot's dense QoM rows (score_sparse is the exact q).
  [[nodiscard]] const ScoreMatrix& scores() const { return scores_; }

  /// Static QoM upper bound of one offer (tests/bench introspection).
  [[nodiscard]] double upper_bound(std::size_t offer) const { return ub_[offer]; }

 private:
  struct Cell {
    std::vector<std::size_t> offers;  // sorted by (ub desc, index asc)
    Time ws_min = 0;                  // min window_start over members
    Time we_max = 0;                  // max window_end over members
    std::uint64_t mask = 0;           // union of member type masks
    std::vector<double> dim_max;      // per resource id: max ρ'_o in cell
    /// k-major member-column transpose (width × |offers|, member order
    /// matching `offers`), so blocks of members score through one
    /// contiguous, vectorizable kernel.
    std::vector<double> col;
  };

  const MarketSnapshot& snapshot_;
  ScoreMatrix scores_;
  std::vector<double> ub_;            // per offer: Σ_k ρ'_(o,k), ascending-k fold
  std::vector<std::uint64_t> mask_;   // per offer: bit (k mod 64) per ρ'_(o,k) > 0
  std::vector<Cell> cells_;
  /// Tie-group members of rank ≥ kGroupCap, ascending offer index —
  /// scanned only when config.max_best_offers exceeds kGroupCap.
  std::vector<std::size_t> overflow_;
};

}  // namespace decloud::auction
