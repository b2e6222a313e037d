// Tests of the market benchmark's statistics on synthetic timings.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace marketbench {
namespace {

TEST(Quantile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TrimmedMean, DropsTheSameShareFromBothEnds) {
  // 10 values, trim 0.1: drop the 1 and the 100.
  EXPECT_DOUBLE_EQ(trimmed_mean({100, 2, 3, 4, 5, 6, 7, 8, 9, 1}, 0.1), 5.5);
  EXPECT_DOUBLE_EQ(trimmed_mean({1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.1), 5.0);  // floor(0.9) = 0
  EXPECT_DOUBLE_EQ(trimmed_mean({4.0}, 0.4), 4.0);
  EXPECT_DOUBLE_EQ(trimmed_mean({}, 0.1), 0.0);
}

TEST(ReportableTail, NeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(reportable_tail(10000), 0.999);  // 10 beyond p99.9
  EXPECT_DOUBLE_EQ(reportable_tail(9999), 0.99);
  EXPECT_DOUBLE_EQ(reportable_tail(1000), 0.99);    // 10 beyond p99
  EXPECT_DOUBLE_EQ(reportable_tail(999), 0.95);
  EXPECT_DOUBLE_EQ(reportable_tail(200), 0.95);
  EXPECT_DOUBLE_EQ(reportable_tail(100), 0.9);
  EXPECT_DOUBLE_EQ(reportable_tail(40), 0.75);
  EXPECT_DOUBLE_EQ(reportable_tail(39), 0.5);
  EXPECT_STREQ(quantile_name(reportable_tail(10000)), "p99.9");
  EXPECT_STREQ(quantile_name(reportable_tail(5000)), "p99");
  EXPECT_STREQ(quantile_name(reportable_tail(3)), "p50");
}

TEST(ClearTimes, AttributesEachBidToTheCloseThatFirstDecidedIt) {
  // Six bids, 1 ms apart.  The submit of bid 2 closes an epoch over bids
  // 0..2 and returns at 10 ms; bids 3..5 stay pending until the flush,
  // which returns at 30 ms; a drain tick at 50 ms decides nothing new.
  const std::vector<std::uint64_t> start = {0, 1'000'000, 2'000'000,
                                            11'000'000, 12'000'000, 13'000'000};
  const std::vector<Close> closes = {{3, 10'000'000}, {6, 30'000'000}, {6, 50'000'000}};
  const std::vector<double> ms = clear_times_ms(start, closes);
  ASSERT_EQ(ms.size(), 6u);
  EXPECT_DOUBLE_EQ(ms[0], 10.0);
  EXPECT_DOUBLE_EQ(ms[1], 9.0);
  EXPECT_DOUBLE_EQ(ms[2], 8.0);
  EXPECT_DOUBLE_EQ(ms[3], 19.0);  // decided by the flush, not the drain tick
  EXPECT_DOUBLE_EQ(ms[5], 17.0);
}

TEST(ClearTimes, BidsLeftAfterTheLastTriggerCloseOnTheDrain) {
  // No flush: the first drain tick decides the tail.
  const std::vector<std::uint64_t> start = {0, 1'000'000, 2'000'000};
  const std::vector<Close> closes = {{2, 5'000'000}, {3, 9'000'000}, {3, 12'000'000}};
  const std::vector<double> ms = clear_times_ms(start, closes);
  EXPECT_DOUBLE_EQ(ms[0], 5.0);
  EXPECT_DOUBLE_EQ(ms[1], 4.0);
  EXPECT_DOUBLE_EQ(ms[2], 7.0);
}

TEST(ClearTimes, RejectsUndecidedBidsAndClosesBeforeSubmit) {
  EXPECT_THROW((void)clear_times_ms({0, 1}, {{1, 10}}), std::invalid_argument);
  EXPECT_THROW((void)clear_times_ms({100}, {{1, 50}}), std::invalid_argument);
  EXPECT_TRUE(clear_times_ms({}, {}).empty());
}

TEST(Imbalance, SlowestOverMeanSummedOverEpochs) {
  // Epoch 1: rounds 2 and 6 (max 6, mean 4); epoch 2: 3, 3 (max 3, mean 3).
  const std::vector<EpochRounds> epochs = {{8.0, {2.0, 6.0}}, {4.0, {3.0, 3.0}}};
  EXPECT_DOUBLE_EQ(imbalance(epochs), 9.0 / 7.0);
  EXPECT_DOUBLE_EQ(imbalance({{5.0, {5.0}}}), 1.0);  // one shard is always balanced
  EXPECT_DOUBLE_EQ(imbalance({}), 0.0);
}

TEST(FanoutEfficiency, BusyShareOfWorkerCapacity) {
  // 14 ms of shard rounds over 12 ms of epoch wall on 2 workers.
  const std::vector<EpochRounds> epochs = {{8.0, {2.0, 6.0}}, {4.0, {3.0, 3.0}}};
  EXPECT_DOUBLE_EQ(fanout_efficiency(epochs, 2), 14.0 / 24.0);
  EXPECT_DOUBLE_EQ(fanout_efficiency({{5.0, {5.0}}}, 1), 1.0);
  EXPECT_DOUBLE_EQ(fanout_efficiency({}, 4), 0.0);
}

TEST(CoveredNs, UnionOfIntervalsClippedToTheWindow) {
  // [0,10) and [5,20) overlap; [30,40) is separate; the window is [2,35).
  EXPECT_EQ(covered_ns({{5, 20}, {0, 10}, {30, 40}}, 2, 35), 18u + 5u);
  EXPECT_EQ(covered_ns({{50, 60}}, 0, 40), 0u);
  EXPECT_EQ(covered_ns({{0, 100}, {10, 20}}, 0, 100), 100u);
}

}  // namespace
}  // namespace marketbench
