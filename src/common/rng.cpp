#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/ensure.hpp"

namespace decloud {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  DECLOUD_EXPECTS(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DECLOUD_EXPECTS(lo <= hi);
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DECLOUD_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : next_below(span));
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller without caching the second deviate: one fewer piece of
  // hidden state keeps replay exact regardless of call interleavings.
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) {
  DECLOUD_EXPECTS(p >= 0.0 && p <= 1.0);
  return next_double() < p;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  DECLOUD_EXPECTS(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    DECLOUD_EXPECTS_MSG(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  DECLOUD_EXPECTS_MSG(total > 0.0, "at least one weight must be positive");
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

}  // namespace decloud
