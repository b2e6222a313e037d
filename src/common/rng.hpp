// Deterministic random number generation.
//
// DeCloud's trade-reduction step randomizes the allocation of excess bids
// (Section IV-D of the paper) and requires the randomization to be
// *verifiable*: every miner must reproduce the exact same stream from the
// block evidence.  std::mt19937 distributions are not guaranteed identical
// across standard libraries, so we implement our own generator
// (xoshiro256**) and our own distribution transforms, giving bit-identical
// streams on every platform.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace decloud {

/// SplitMix64 — used to expand small seeds into full xoshiro state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna — small, fast, high quality, and
/// fully specified so that miner-side re-verification is exact.
///
/// Satisfies std::uniform_random_bit_generator, so it can also drive
/// standard-library facilities in non-consensus code.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds from a single 64-bit value via SplitMix64 state expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (deterministic: no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Samples an index according to non-negative weights (linear scan;
  /// weights need not be normalized).  Empty or all-zero weights are a
  /// precondition violation.
  std::size_t weighted_index(std::span<const double> weights);

  /// In-place Fisher–Yates shuffle — deterministic across platforms, unlike
  /// std::shuffle whose result depends on the standard library.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace decloud
