#include "auction/candidate_index.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "auction/best_select.hpp"
#include "auction/feasibility.hpp"
#include "common/ensure.hpp"

namespace decloud::auction {

namespace {

/// Buckets per window axis: 8×8 = at most 64 cells, so the per-query cell
/// work (activation tests, bound sort) stays trivial next to the offer
/// scan it saves.
constexpr std::size_t kWindowBuckets = 8;

/// Members scored per block of the cell kernel.  256 doubles per column
/// panel keeps the accumulator and column slices L1-resident, while the
/// block-leading static ub gives the scan an early-exit test every 256
/// offers.
constexpr std::size_t kCellBlock = 256;

/// Relative inflation applied to the request-aware cell bounds.  The
/// closed-form peak is exact in the reals; the computed doubles can round
/// a few ulp either way, so the bound is widened by nine orders of
/// magnitude more than any accumulated rounding before it is compared
/// against computed q values.  (The static per-offer bound needs NO slack:
/// it dominates q fold-step by fold-step under monotone rounding.)
constexpr double kBoundSlack = 1.0 + 1e-9;

/// Quantile boundaries over `values` (sorted copy, up to kWindowBuckets
/// groups): boundaries[i] is the first value of group i+1.
std::vector<Time> bucket_boundaries(std::vector<Time> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<Time> bounds;
  const std::size_t groups = std::min(kWindowBuckets, std::max<std::size_t>(values.size(), 1));
  for (std::size_t g = 1; g < groups; ++g) {
    bounds.push_back(values[g * values.size() / groups]);
  }
  return bounds;
}

std::size_t bucket_of(const std::vector<Time>& bounds, Time v) {
  return static_cast<std::size_t>(std::upper_bound(bounds.begin(), bounds.end(), v) -
                                  bounds.begin());
}

/// sup over op ∈ [0, M] of op / ((op − rp)² + 1): the Eq. 18 term's
/// request-aware peak, attained at op* = √(rp² + 1) (the positive root of
/// d² + 2·rp·d − 1 with d = op − rp) or at M when the cell's maximum sits
/// left of the peak.
double peak_term(double cell_max, double rp) {
  if (cell_max <= 0.0) return 0.0;
  const double op_star = std::sqrt(rp * rp + 1.0);  // = rp + d*
  const double op = std::min(cell_max, op_star);
  const double d = op - rp;
  return op / (d * d + 1.0);
}

}  // namespace

CandidateIndex::CandidateIndex(const MarketSnapshot& snapshot)
    : snapshot_(snapshot),
      scores_(snapshot, BlockScale(snapshot.requests, snapshot.offers)) {
  // Structural fact 3's bound holds only over valid bids (σ ∈ (0, 1],
  // ordered windows), so the build refuses anything else at its boundary.
  for (const Request& r : snapshot.requests) validate(r);
  for (const Offer& o : snapshot.offers) validate(o);
  const ScoreMatrix& scores = scores_;
  const std::size_t width = scores.width();
  const std::size_t no = snapshot.offers.size();
  ub_.resize(no);
  mask_.resize(no);
  for (std::size_t o = 0; o < no; ++o) {
    const double* row = scores.offer_norm_row(o);
    // Ascending-k left fold, exactly like the score folds it bounds:
    // each ub term ρ'_(o,k) dominates the corresponding q term, and IEEE
    // rounding is monotone, so the computed ub dominates every computed q.
    double ub = 0.0;
    std::uint64_t mask = 0;
    for (std::size_t k = 0; k < width; ++k) {
      ub += row[k];
      if (row[k] > 0.0) mask |= std::uint64_t{1} << (k % 64);
    }
    ub_[o] = ub;
    mask_[o] = mask;
  }

  // Tie-group ranks (structural fact 4): offers identical in
  // (window_start, window_end, min_reputation, normalized row) are exact
  // ties for every request, ordered among themselves only by the
  // selector's own (submitted, id) tie-break.  min_reputation is part of
  // the key because feasible() gates on it: offers equal in window and
  // resources but with different reputation thresholds can give DIFFERENT
  // feasibility verdicts for the same request, so they are not
  // interchangeable.  Sort by (key, submitted, id), then rank within each
  // equal-key run.
  const auto same_group = [&](std::size_t a, std::size_t b) {
    const Offer& oa = snapshot.offers[a];
    const Offer& ob = snapshot.offers[b];
    if (oa.window_start != ob.window_start || oa.window_end != ob.window_end) return false;
    if (oa.min_reputation != ob.min_reputation) return false;
    const double* ra = scores.offer_norm_row(a);
    const double* rb = scores.offer_norm_row(b);
    for (std::size_t k = 0; k < width; ++k) {
      if (ra[k] != rb[k]) return false;
    }
    return true;
  };
  std::vector<std::size_t> order(no);
  for (std::size_t o = 0; o < no; ++o) order[o] = o;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Offer& oa = snapshot.offers[a];
    const Offer& ob = snapshot.offers[b];
    if (oa.window_start != ob.window_start) return oa.window_start < ob.window_start;
    if (oa.window_end != ob.window_end) return oa.window_end < ob.window_end;
    if (oa.min_reputation != ob.min_reputation) return oa.min_reputation < ob.min_reputation;
    const double* ra = scores.offer_norm_row(a);
    const double* rb = scores.offer_norm_row(b);
    for (std::size_t k = 0; k < width; ++k) {
      if (ra[k] != rb[k]) return ra[k] < rb[k];
    }
    // Within a group: the selector's tie-break order, verbatim.
    if (oa.submitted != ob.submitted) return oa.submitted < ob.submitted;
    return oa.id < ob.id;
  });
  std::vector<std::size_t> group_rank(no, 0);
  for (std::size_t i = 1; i < no; ++i) {
    group_rank[order[i]] = same_group(order[i - 1], order[i]) ? group_rank[order[i - 1]] + 1 : 0;
  }
  // Window grid: quantile buckets over the offers' start/end stamps.
  std::vector<Time> starts(no);
  std::vector<Time> ends(no);
  for (std::size_t o = 0; o < no; ++o) {
    starts[o] = snapshot.offers[o].window_start;
    ends[o] = snapshot.offers[o].window_end;
  }
  const std::vector<Time> ws_bounds = bucket_boundaries(starts);
  const std::vector<Time> we_bounds = bucket_boundaries(ends);
  const std::size_t n_we = we_bounds.size() + 1;
  cells_.resize((ws_bounds.size() + 1) * n_we);

  for (std::size_t o = 0; o < no; ++o) {
    if (group_rank[o] >= kGroupCap) {
      overflow_.push_back(o);  // ascending index: o is the loop variable
      continue;
    }
    const std::size_t ci = bucket_of(ws_bounds, starts[o]) * n_we + bucket_of(we_bounds, ends[o]);
    Cell& cell = cells_[ci];
    if (cell.offers.empty()) {
      cell.ws_min = starts[o];
      cell.we_max = ends[o];
      cell.dim_max.assign(width, 0.0);
    } else {
      cell.ws_min = std::min(cell.ws_min, starts[o]);
      cell.we_max = std::max(cell.we_max, ends[o]);
    }
    cell.mask |= mask_[o];
    const double* row = scores.offer_norm_row(o);
    for (std::size_t k = 0; k < width; ++k) {
      cell.dim_max[k] = std::max(cell.dim_max[k], row[k]);
    }
    cell.offers.push_back(o);
  }
  // Drop empty cells; order members by descending static bound (ties by
  // ascending index — a deterministic total order), then lay the members'
  // normalized rows out k-major so the query can score blocks with one
  // contiguous kernel.
  std::erase_if(cells_, [](const Cell& c) { return c.offers.empty(); });
  for (Cell& cell : cells_) {
    std::sort(cell.offers.begin(), cell.offers.end(), [&](std::size_t a, std::size_t b) {
      if (ub_[a] != ub_[b]) return ub_[a] > ub_[b];
      return a < b;
    });
    const std::size_t m = cell.offers.size();
    cell.col.assign(width * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = scores.offer_norm_row(cell.offers[i]);
      for (std::size_t k = 0; k < width; ++k) cell.col[k * m + i] = row[k];
    }
  }
}

std::vector<std::size_t> CandidateIndex::best_offers(std::size_t request,
                                                     const AuctionConfig& config,
                                                     Scratch& scratch) const {
  const MarketSnapshot& snapshot = snapshot_;
  const ScoreMatrix& scores = scores_;
  DECLOUD_EXPECTS(request < snapshot.requests.size());
  scratch.scored = 0;
  if (config.max_best_offers == 0) return {};  // selector would be vacuously full
  BestOfferSelector selector(snapshot.offers, config.max_best_offers);
  const Request& r = snapshot.requests[request];
  const double* rp = scores.request_norm_row(request);
  const double* sig = scores.request_sig_row(request);

  std::uint64_t rmask = 0;
  for (const ResourceId k : scores.request_types(request)) {
    rmask |= std::uint64_t{1} << (k % 64);
  }

  // Activate the cells that can possibly hold a ranked feasible offer,
  // with their request-aware bounds, ordered (bound desc, cell asc) — a
  // deterministic total order that lets the scan stop at the first cell
  // whose bound falls strictly below the held k-th q.
  scratch.active.clear();
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    const Cell& cell = cells_[ci];
    if (cell.ws_min > r.window_start) continue;   // nobody covers t_r⁻
    if (cell.we_max < r.window_end) continue;     // nobody covers t_r⁺
    if ((cell.mask & rmask) == 0) continue;       // no shared type: q ≡ +0.0
    double bound = 0.0;
    for (const ResourceId k : scores.request_types(request)) {
      bound += sig[k] * peak_term(cell.dim_max[k], rp[k]);
    }
    bound *= kBoundSlack;
    if (bound <= 0.0) continue;                   // q ≡ +0.0 in this cell
    scratch.active.push_back({ci, bound});
  }
  std::sort(scratch.active.begin(), scratch.active.end(),
            [](const Scratch::Active& a, const Scratch::Active& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.cell < b.cell;
            });

  scratch.acc.resize(kCellBlock);
  const std::span<const ResourceId> types = scores.request_types(request);
  for (const Scratch::Active& act : scratch.active) {
    // Strict '<' throughout the early exits: an exact tie with the k-th q
    // could still win on the (submitted, id) tie-break, so only strictly
    // lower bounds stop the scan.  Cells are sorted by descending bound,
    // so everything after this cell is bounded even lower.
    if (selector.full() && act.bound < selector.kth_q()) break;
    const Cell& cell = cells_[act.cell];
    const std::size_t m = cell.offers.size();
    for (std::size_t base = 0; base < m; base += kCellBlock) {
      // Members are sorted by descending static ub, so the block's first
      // member bounds the whole tail of the cell; the static bound
      // dominates computed q fold-step by fold-step (no slack needed).
      if (selector.full() && ub_[cell.offers[base]] < selector.kth_q()) break;
      const std::size_t n = std::min(kCellBlock, m - base);
      scratch.scored += n;
      double* __restrict acc = scratch.acc.data();
      std::fill(acc, acc + n, 0.0);
      for (const ResourceId k : types) {
        // A column the cell never touches contributes exactly +0.0 to
        // every lane (ρ' = 0 for all members), so skipping it preserves
        // the ascending-k left fold bit for bit.
        if (cell.dim_max[k] <= 0.0) continue;
        const double sk = sig[k];
        const double rpk = rp[k];
        const double* __restrict col = cell.col.data() + k * m + base;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = col[i] - rpk;
          acc[i] += sk * col[i] / (d * d + 1.0);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double q = acc[i];
        if (q <= 0.0) continue;  // no common resource type: never ranked
        const std::size_t o = cell.offers[base + i];
        if (!feasible(snapshot.offers[o], r, config)) continue;
        selector.consider(o, q);
      }
    }
  }
  // Tie-group members beyond kGroupCap can only matter under a cap larger
  // than the build-time guarantee; then they are scanned exhaustively —
  // exactness over speed for that (unusual) configuration.
  if (config.max_best_offers > kGroupCap) {
    for (const std::size_t o : overflow_) {
      if ((mask_[o] & rmask) == 0) continue;  // q would be exactly +0.0
      if (!feasible(snapshot.offers[o], r, config)) continue;
      const double q = scores.score_sparse(request, o);
      ++scratch.scored;
      if (q <= 0.0) continue;
      selector.consider(o, q);
    }
  }
  return selector.finish(config.best_offer_ratio);
}

}  // namespace decloud::auction
