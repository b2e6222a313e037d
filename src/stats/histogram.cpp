#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace decloud::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  DECLOUD_EXPECTS(hi > lo);
  DECLOUD_EXPECTS(bins > 0);
}

std::size_t Histogram::bin_of(double sample) const {
  DECLOUD_EXPECTS_MSG(!std::isnan(sample), "histogram sample must not be NaN");
  // Clamp before the cast: a double past the integer range (or ±inf) has
  // no defined conversion.  The half-open upper edge maps into the last bin.
  const double t = std::clamp((sample - lo_) / (hi_ - lo_), 0.0, 1.0);
  return std::min(static_cast<std::size_t>(t * static_cast<double>(counts_.size())),
                  counts_.size() - 1);
}

void Histogram::add(double sample, double weight) {
  DECLOUD_EXPECTS(weight >= 0.0);
  counts_[bin_of(sample)] += weight;
  total_ += weight;
  sum_ += sample * weight;
}

void Histogram::merge(const Histogram& other) {
  DECLOUD_EXPECTS_MSG(lo_ == other.lo_ && hi_ == other.hi_,
                      "histogram merge requires identical bucket bounds");
  DECLOUD_EXPECTS_MSG(counts_.size() == other.counts_.size(),
                      "histogram merge requires identical bin counts");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

std::vector<double> normalize(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  std::vector<double> out(weights.size());
  if (total <= 0.0) {
    const double u = weights.empty() ? 0.0 : 1.0 / static_cast<double>(weights.size());
    std::fill(out.begin(), out.end(), u);
    return out;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) out[i] = weights[i] / total;
  return out;
}

}  // namespace decloud::stats
