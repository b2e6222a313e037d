#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/ensure.hpp"

namespace decloud::stats {
namespace {

TEST(Histogram, BinsSamplesUniformly) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1.0) << "bin " << b;
  EXPECT_EQ(h.total(), 10.0);
}

TEST(Histogram, ClampsOutOfRangeSamples) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1.0);
  EXPECT_EQ(h.count(3), 1.0);
  EXPECT_EQ(h.total(), 2.0);

  // Samples past the integer range and infinities land in the boundary
  // bins too: the clamp happens before the cast to an index.
  const Histogram wide(0.0, 4.0, 16);
  EXPECT_EQ(wide.bin_of(1e19), 15u);
  EXPECT_EQ(wide.bin_of(1e300), 15u);
  EXPECT_EQ(wide.bin_of(std::numeric_limits<double>::infinity()), 15u);
  EXPECT_EQ(wide.bin_of(-1e300), 0u);
  EXPECT_EQ(wide.bin_of(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_THROW((void)wide.bin_of(std::numeric_limits<double>::quiet_NaN()), precondition_error);
}

TEST(Histogram, UpperBoundFallsInLastBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(1.0);  // hi itself clamps into the last bin
  EXPECT_EQ(h.count(3), 1.0);
}

TEST(Histogram, WeightedSamples) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_EQ(h.count(0), 3.0);
  EXPECT_EQ(h.count(1), 1.0);
  EXPECT_EQ(h.total(), 4.0);
}

TEST(Histogram, NegativeWeightRejected) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(h.add(0.5, -1.0), precondition_error);
}

TEST(Histogram, InvalidConstructionRejected) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), precondition_error);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), precondition_error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), precondition_error);
}

TEST(Histogram, MergeAccumulatesBinWise) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 1.0, 4);
  a.add(0.1);
  a.add(0.6, 2.0);
  b.add(0.6);
  b.add(0.9);
  a.merge(b);
  EXPECT_EQ(a.count(0), 1.0);
  EXPECT_EQ(a.count(2), 3.0);
  EXPECT_EQ(a.count(3), 1.0);
  EXPECT_EQ(a.total(), 5.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.1 + 1.2 + 0.6 + 0.9);
}

TEST(Histogram, MergeRejectsMismatchedLayout) {
  // Merging histograms with different bucket layouts would silently land
  // counts in bins with different meanings — the obs registry relies on
  // this throwing instead (regression for the cross-shard metrics merge).
  Histogram a(0.0, 1.0, 4);
  EXPECT_THROW(a.merge(Histogram(0.5, 1.0, 4)), precondition_error);  // lo differs
  EXPECT_THROW(a.merge(Histogram(0.0, 2.0, 4)), precondition_error);  // hi differs
  EXPECT_THROW(a.merge(Histogram(0.0, 1.0, 8)), precondition_error);  // bins differ
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a(0.0, 1.0, 2);
  a.add(0.25, 3.0);
  a.merge(Histogram(0.0, 1.0, 2));
  EXPECT_EQ(a.count(0), 3.0);
  EXPECT_EQ(a.total(), 3.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.75);
}

TEST(Normalize, SumsToOne) {
  const std::vector<double> w = {1.0, 2.0, 7.0};
  const auto d = normalize(w);
  EXPECT_DOUBLE_EQ(d[0] + d[1] + d[2], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 0.7);
}

TEST(Normalize, AllZeroGivesUniform) {
  const std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  const auto d = normalize(w);
  for (const double p : d) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(Normalize, EmptyGivesEmpty) { EXPECT_TRUE(normalize(std::vector<double>{}).empty()); }

}  // namespace
}  // namespace decloud::stats
