// Statistics the market benchmark reports, kept free of any DeCloud type so
// they can be tested on synthetic timings (stats_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace marketbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median, the 0.5 quantile.
[[nodiscard]] double median(std::vector<double> values);

/// Mean of `values` after dropping floor(trim * n) of the smallest and as
/// many of the largest; 0 when empty.
[[nodiscard]] double trimmed_mean(std::vector<double> values, double trim);

/// The highest tail quantile among 0.999, 0.99, 0.95, 0.9 and 0.75 that
/// leaves at least ten of `samples` beyond it; 0.5 when none does.  A tail
/// figure is reported only at that quantile or below it.
[[nodiscard]] double reportable_tail(std::size_t samples);

/// Printable name of a quantile: 0.99 -> "p99", 0.999 -> "p99.9".
[[nodiscard]] const char* quantile_name(double q);

/// One epoch close: the call that closed it returned at `end_ns`, and it
/// decided every bid submitted before it, i.e. bids [0, covers).
struct Close {
  std::size_t covers = 0;
  std::uint64_t end_ns = 0;
};

/// Per-bid wait, in ms, from the start of bid i's submit call
/// (`submit_start_ns[i]`) to the return of the first close that decided it:
/// the first entry of `closes` (in call order) with covers > i.  Closing
/// submits, flushes and drain ticks are all closes.  Throws
/// std::invalid_argument if a bid is never decided or a close ends before
/// the bid's submit started.
[[nodiscard]] std::vector<double> clear_times_ms(const std::vector<std::uint64_t>& submit_start_ns,
                                                 const std::vector<Close>& closes);

/// Wall time of one epoch and the duration of every shard round it ran.
struct EpochRounds {
  double wall_ms = 0.0;
  std::vector<double> shard_ms;
};

/// Sum over epochs of the slowest shard round, divided by the sum over
/// epochs of the mean shard round.  1 means perfectly balanced; 0 when no
/// epoch ran a round.
[[nodiscard]] double imbalance(const std::vector<EpochRounds>& epochs);

/// Total shard-round time divided by (workers x total epoch wall time):
/// the share of the workers' capacity that shard rounds kept busy.
[[nodiscard]] double fanout_efficiency(const std::vector<EpochRounds>& epochs,
                                       std::size_t workers);

/// Length of the part of [lo, hi) covered by at least one interval.
[[nodiscard]] std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                                       std::uint64_t lo, std::uint64_t hi);

}  // namespace marketbench
