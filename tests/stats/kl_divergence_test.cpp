#include "stats/kl_divergence.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/ensure.hpp"

namespace decloud::stats {
namespace {

TEST(KlDivergence, IdenticalDistributionsGiveZero) {
  const std::vector<double> p = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(kl_divergence(p, p), 0.0, 1e-9);
}

TEST(KlDivergence, KnownValue) {
  // KL([1,0] ‖ [0.5,0.5]) = ln 2 (up to smoothing).
  const std::vector<double> p = {1.0, 0.0};
  const std::vector<double> q = {0.5, 0.5};
  EXPECT_NEAR(kl_divergence(p, q), std::numbers::ln2, 1e-6);
}

TEST(KlDivergence, IsAsymmetric) {
  const std::vector<double> p = {0.9, 0.1};
  const std::vector<double> q = {0.5, 0.5};
  EXPECT_NE(kl_divergence(p, q), kl_divergence(q, p));
}

TEST(KlDivergence, SmoothingPreventsInfinity) {
  // q has zero mass where p doesn't: raw KL is infinite; smoothing bounds it.
  const std::vector<double> p = {0.5, 0.5};
  const std::vector<double> q = {1.0, 0.0};
  const double kld = kl_divergence(p, q);
  EXPECT_TRUE(std::isfinite(kld));
  EXPECT_GT(kld, 1.0);  // still clearly large
}

TEST(KlDivergence, NonNegative) {
  const std::vector<double> p = {0.2, 0.3, 0.5};
  const std::vector<double> q = {0.5, 0.3, 0.2};
  EXPECT_GE(kl_divergence(p, q), 0.0);
  EXPECT_GE(kl_divergence(q, p), 0.0);
}

TEST(KlDivergence, UnnormalizedInputsAccepted) {
  // Counts work as well as probabilities.
  const std::vector<double> p = {10.0, 30.0};
  const std::vector<double> q = {1.0, 3.0};
  EXPECT_NEAR(kl_divergence(p, q), 0.0, 1e-6);
}

TEST(KlDivergence, SizeMismatchThrows) {
  const std::vector<double> p = {1.0};
  const std::vector<double> q = {0.5, 0.5};
  EXPECT_THROW(kl_divergence(p, q), precondition_error);
}

TEST(KlDivergence, EmptyThrows) {
  const std::vector<double> e;
  EXPECT_THROW(kl_divergence(e, e), precondition_error);
}

TEST(Similarity, OneForIdenticalZeroFloorForDistant) {
  const std::vector<double> p = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(similarity(p, p), 1.0, 1e-6);
  const std::vector<double> a = {1.0, 0.0, 0.0, 0.0};
  const std::vector<double> b = {0.0, 0.0, 0.0, 1.0};
  EXPECT_EQ(similarity(a, b), 0.0);  // clamped at zero
}

TEST(Similarity, MonotoneInMixing) {
  // Walking q away from p decreases similarity.
  const std::vector<double> p = {0.7, 0.2, 0.1};
  double prev = 2.0;
  for (const double lam : {0.0, 0.3, 0.6, 0.9}) {
    std::vector<double> q(3);
    const std::vector<double> far = {0.0, 0.1, 0.9};
    for (int i = 0; i < 3; ++i) {
      q[static_cast<std::size_t>(i)] = (1 - lam) * p[static_cast<std::size_t>(i)] +
                                       lam * far[static_cast<std::size_t>(i)];
    }
    const double s = similarity(p, q);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

}  // namespace
}  // namespace decloud::stats
