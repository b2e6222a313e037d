#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace marketbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double trimmed_mean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::size_t>(std::floor(trim * static_cast<double>(values.size())));
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double reportable_tail(std::size_t samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    // Samples strictly above the q-quantile's rank.
    const double beyond = static_cast<double>(samples) * (1.0 - q);
    if (beyond >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

const char* quantile_name(double q) {
  if (q >= 0.999) return "p99.9";
  if (q >= 0.99) return "p99";
  if (q >= 0.95) return "p95";
  if (q >= 0.9) return "p90";
  if (q >= 0.75) return "p75";
  return "p50";
}

std::vector<double> clear_times_ms(const std::vector<std::uint64_t>& submit_start_ns,
                                   const std::vector<Close>& closes) {
  std::vector<double> out;
  out.reserve(submit_start_ns.size());
  std::size_t c = 0;
  for (std::size_t i = 0; i < submit_start_ns.size(); ++i) {
    while (c < closes.size() && closes[c].covers <= i) ++c;
    if (c == closes.size()) {
      throw std::invalid_argument("bid " + std::to_string(i) + " was never decided by a close");
    }
    if (closes[c].end_ns < submit_start_ns[i]) {
      throw std::invalid_argument("close ends before bid " + std::to_string(i) + " was submitted");
    }
    out.push_back(static_cast<double>(closes[c].end_ns - submit_start_ns[i]) / 1e6);
  }
  return out;
}

double imbalance(const std::vector<EpochRounds>& epochs) {
  double slowest = 0.0;
  double mean = 0.0;
  for (const EpochRounds& e : epochs) {
    if (e.shard_ms.empty()) continue;
    double sum = 0.0;
    for (const double ms : e.shard_ms) sum += ms;
    slowest += *std::max_element(e.shard_ms.begin(), e.shard_ms.end());
    mean += sum / static_cast<double>(e.shard_ms.size());
  }
  return mean > 0.0 ? slowest / mean : 0.0;
}

double fanout_efficiency(const std::vector<EpochRounds>& epochs, std::size_t workers) {
  double busy = 0.0;
  double wall = 0.0;
  for (const EpochRounds& e : epochs) {
    for (const double ms : e.shard_ms) busy += ms;
    wall += e.wall_ms;
  }
  const double capacity = wall * static_cast<double>(workers);
  return capacity > 0.0 ? busy / capacity : 0.0;
}

std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                         std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;  // everything before `reach` is already counted
  for (const auto& [begin, end] : intervals) {
    const std::uint64_t b = std::max(begin, reach);
    const std::uint64_t e = std::min(end, hi);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return covered;
}

}  // namespace marketbench
