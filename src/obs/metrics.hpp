// Deterministic metrics registry: counters, gauges, fixed-bucket
// histograms.
//
// One registry belongs to one owner (a shard, a driver, a scheduler) and
// is written by at most one thread at a time — cross-shard aggregation
// happens by merging registries in FIXED shard order, never by sharing
// one registry across threads.  Because every metric value is a
// deterministic function of the owner's (deterministic) work, and the
// export walks names in sorted order printing doubles with %.17g, an
// exported snapshot is byte-identical across scheduler thread counts.
//
// Metric handles returned by counter()/gauge()/histogram() stay valid for
// the registry's lifetime (std::map node stability), so hot paths resolve
// a name once and increment through the reference.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "stats/histogram.hpp"

namespace decloud::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time double.  add() makes it usable as a float accumulator
/// (e.g. welfare); merges sum, which is the right semantics for both uses
/// here (per-shard gauges describe per-shard totals).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Returns the named metric, creating it on first use.  Handles are
  /// stable for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First use fixes the bucket layout; later calls (and merges) with a
  /// DIFFERENT layout throw precondition_error rather than mixing buckets
  /// with different meanings.
  stats::Histogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);

  /// Folds `other` into this registry: counters/gauges sum, histograms
  /// merge bin-wise (stats::Histogram::merge enforces identical bounds).
  /// Deterministic: call in fixed shard order.
  void merge_from(const MetricsRegistry& other);

  /// One JSON object, keys sorted, doubles %.17g — the byte-compared form.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (counters, gauges, cumulative
  /// histogram buckets with `le` labels).  Metric names have '.' mapped to
  /// '_' to satisfy the Prometheus grammar.
  [[nodiscard]] std::string to_prometheus() const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }


 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, stats::Histogram, std::less<>> histograms_;
};

}  // namespace decloud::obs
