#include "stats/kl_divergence.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"
#include "stats/histogram.hpp"

namespace decloud::stats {

namespace {

constexpr double kSmoothing = 1e-9;

std::vector<double> smooth_and_normalize(std::span<const double> dist) {
  std::vector<double> out(dist.begin(), dist.end());
  for (auto& v : out) v += kSmoothing;
  return normalize(out);
}

}  // namespace

double kl_divergence(std::span<const double> p, std::span<const double> q) {
  DECLOUD_EXPECTS(p.size() == q.size());
  DECLOUD_EXPECTS(!p.empty());
  const auto ps = smooth_and_normalize(p);
  const auto qs = smooth_and_normalize(q);
  double kld = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (ps[i] > 0.0) kld += ps[i] * std::log(ps[i] / qs[i]);
  }
  return std::max(kld, 0.0);  // guard tiny negative rounding
}

double similarity(std::span<const double> p, std::span<const double> q) {
  return std::clamp(1.0 - kl_divergence(p, q), 0.0, 1.0);
}

}  // namespace decloud::stats
