// Bounded top-k selection for the best-offer stage.
//
// The full-sort oracle (best_offers_reference) collects every feasible
// (offer, q) pair and sorts it — O(F log F) per request with an F-sized
// allocation — only to keep at most config.max_best_offers entries.
// BestOfferSelector keeps exactly that prefix in a fixed-capacity
// insertion-sorted buffer: O(F · k) with k ≤ max_best_offers (default 4),
// no allocation after the first use, and the *identical* strict total
// order
//
//     q descending  →  submitted ascending  →  offer id ascending
//
// so the selected set and its internal ranking are bit-for-bit the ones
// the full sort produced (offer ids are unique, so the order is total and
// the outcome is independent of insertion order).  CandidateIndex
// (candidate_index.hpp) additionally reads kth_q()/full() to drive its
// exact early-termination test.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "auction/bid.hpp"

namespace decloud::auction {

class BestOfferSelector {
 public:
  /// `offers` is the snapshot's offer list (for the tie-break fields);
  /// `capacity` is config.max_best_offers.
  BestOfferSelector(const std::vector<Offer>& offers, std::size_t capacity)
      : offers_(&offers), capacity_(capacity) {
    held_.reserve(capacity);
  }

  /// Re-arms the selector for another request without releasing storage.
  void reset() { held_.clear(); }

  [[nodiscard]] bool full() const { return held_.size() == capacity_; }
  [[nodiscard]] bool empty() const { return held_.empty(); }

  /// q of the current k-th (worst held) candidate; only meaningful when
  /// full() — the index scan's termination bound.
  [[nodiscard]] double kth_q() const { return held_.back().q; }

  /// q of the current best candidate (the admission threshold base).
  [[nodiscard]] double top_q() const { return held_.front().q; }

  /// Considers offer index `o` with score `q` (> 0).  Keeps the buffer
  /// sorted by ranks_before; drops the displaced worst entry when full.
  void consider(std::size_t o, double q) {
    if (capacity_ == 0) return;
    const Entry e{o, q};
    if (full() && !ranks_before(e, held_.back())) return;
    // Insertion point: first held entry that e outranks.  Track it as an
    // index, not an iterator — pop_back invalidates end-adjacent
    // iterators, and the insertion slot can be exactly the popped one.
    std::size_t pos = 0;
    while (pos < held_.size() && !ranks_before(e, held_[pos])) ++pos;
    if (full()) held_.pop_back();
    held_.insert(held_.begin() + pos, e);
  }

  /// Applies the admission threshold (q ≥ ratio · top_q, a prefix of the
  /// held ranking) and returns the chosen offer indices in ascending
  /// order — exactly what the full-sort implementation emitted.
  [[nodiscard]] std::vector<std::size_t> finish(double best_offer_ratio) const {
    std::vector<std::size_t> best;
    if (held_.empty()) return best;
    const double threshold = best_offer_ratio * top_q();
    best.reserve(held_.size());
    for (const Entry& e : held_) {
      if (e.q < threshold) break;  // held_ is sorted: the rest are below too
      best.push_back(e.offer);
    }
    std::sort(best.begin(), best.end());
    return best;
  }

 private:
  struct Entry {
    std::size_t offer;
    double q;
  };

  /// The full-sort comparator, verbatim: higher q first, then earlier
  /// submission, then lower offer id.
  [[nodiscard]] bool ranks_before(const Entry& a, const Entry& b) const {
    if (a.q != b.q) return a.q > b.q;
    const Offer& oa = (*offers_)[a.offer];
    const Offer& ob = (*offers_)[b.offer];
    if (oa.submitted != ob.submitted) return oa.submitted < ob.submitted;
    return oa.id < ob.id;
  }

  const std::vector<Offer>* offers_;
  std::size_t capacity_;
  std::vector<Entry> held_;
};

}  // namespace decloud::auction
