// Fixed-bin histograms and discrete probability distributions.
//
// The metrics registry keeps its distributions (clearing prices, per-block
// welfare and trades) in Histograms; the flexibility study (Fig. 5d–5f)
// normalizes resource weights into the distributions the KL-divergence
// code consumes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace decloud::stats {

/// A histogram with `bins` equal-width bins over [lo, hi).  Samples outside
/// the range (±inf included) are clamped into the boundary bins, so no mass
/// is lost; a NaN sample throws precondition_error.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double sample, double weight = 1.0);

  /// Accumulates another histogram into this one, bin by bin.  Both
  /// histograms must describe the SAME bucket layout — identical [lo, hi)
  /// and bin count — or the per-bin counts would silently land in buckets
  /// with different meanings; a mismatch throws precondition_error instead.
  /// This is the merge the obs metrics registry uses to fold per-shard
  /// histograms in fixed shard order.
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t bin_of(double sample) const;
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] double count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] double total() const { return total_; }
  /// Σ sample·weight over everything added (before clamping); merged
  /// histograms accumulate it in merge order.
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
  double sum_ = 0.0;
};

/// Normalizes arbitrary non-negative weights into a distribution summing to
/// one.  All-zero input yields the uniform distribution.
[[nodiscard]] std::vector<double> normalize(std::span<const double> weights);

}  // namespace decloud::stats
