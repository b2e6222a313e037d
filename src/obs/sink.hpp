// MetricsSink — the one handle instrumented code touches.
//
// A sink bundles a MetricsRegistry and a Tracer under a label ("shard3",
// "scheduler", …).  Instrumentation sites across auction/, ledger/ and
// engine/ take a `MetricsSink*` that defaults to nullptr; every
// hook (SpanScope, the `if (sink)` counter guards) collapses to a single
// pointer test when observability is off, so the hot path pays nothing —
// the null-sink zero-cost contract (DESIGN.md §3e, measured by
// bench/perf_smoke).
//
// Ownership/threading: one sink per shard (or per driver), written only
// by whichever thread is running that shard's round — the same discipline
// as the shard markets themselves, so no synchronization is needed.
// Cross-shard views are produced by merging/exporting sinks in FIXED
// order (merged_metrics_json / merged_chrome_trace), which keeps the
// exported bytes independent of the scheduler's thread count.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace decloud::obs {

class Clock;

class MetricsSink {
 public:
  /// `clock` may be null (logical-clock-only mode) and is not owned.
  explicit MetricsSink(std::string label, Clock* clock = nullptr)
      : label_(std::move(label)), tracer_(clock) {}

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  std::string label_;
  MetricsRegistry metrics_;
  Tracer tracer_;
};

/// RAII stage span.  With a null sink every member is a no-op; with a live
/// sink the span opens at construction and closes at scope exit.
class SpanScope {
 public:
  SpanScope(MetricsSink* sink, std::string_view name)
      : tracer_(sink != nullptr ? &sink->tracer() : nullptr),
        index_(tracer_ != nullptr ? tracer_->begin_span(name) : 0) {}

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end_span(index_, work_);
  }

  /// Adds to the span's deterministic work counter.
  void add_work(std::uint64_t n) { work_ += n; }

 private:
  Tracer* tracer_;
  std::size_t index_;
  std::uint64_t work_ = 0;
};

/// Merges every sink's registry in the given (fixed) order into one
/// registry and serializes it (metrics.hpp JSON).  Byte-deterministic as
/// long as the order and each sink's contents are.
[[nodiscard]] std::string merged_metrics_json(const std::vector<const MetricsSink*>& sinks);

/// Same merge, Prometheus text exposition format.
[[nodiscard]] std::string merged_metrics_prometheus(
    const std::vector<const MetricsSink*>& sinks);

/// Chrome trace_event JSON ("traceEvents" array of complete "X" events,
/// loadable in chrome://tracing / Perfetto).  Each sink becomes one pid,
/// named by its label via process_name metadata; timestamps use the
/// sink's wall clock when it has one and the logical sequence otherwise.
[[nodiscard]] std::string merged_chrome_trace(const std::vector<const MetricsSink*>& sinks);

}  // namespace decloud::obs
