#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/ensure.hpp"

namespace decloud {
namespace {

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(a, sm2.next());
  EXPECT_EQ(b, sm2.next());
  EXPECT_NE(a, b);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), precondition_error);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);  // all residues appear in 500 draws whp
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRangeAndMean) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double d = rng.uniform(2.0, 4.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 4.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(4.0, 2.0), precondition_error);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = rng.normal(10.0, 2.0);
    sum += d;
    sq += d * d;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW(rng.bernoulli(1.5), precondition_error);
  EXPECT_THROW(rng.bernoulli(-0.1), precondition_error);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexPreconditions) {
  Rng rng(29);
  const std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), precondition_error);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), precondition_error);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), precondition_error);
}

TEST(Rng, ShuffleIsPermutationAndDeterministic) {
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> w = v;
  Rng a(31);
  Rng b(31);
  a.shuffle(v);
  b.shuffle(w);
  EXPECT_EQ(v, w);  // deterministic
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expect(50);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(sorted, expect);  // permutation
}

TEST(Rng, ShuffleEmptyAndSingleton) {
  Rng rng(37);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

/// The generator must satisfy uniform_random_bit_generator for std
/// facilities used in non-consensus code.
static_assert(std::uniform_random_bit_generator<Rng>);

}  // namespace
}  // namespace decloud
