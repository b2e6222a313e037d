// Kullback–Leibler divergence between discrete distributions.
//
// The similarity axis of Fig. 5d–5f is 1 − KLD(R^β, O^β) over resource
// distributions.  KLD is computed with additive smoothing so that offer
// bins with zero mass do not produce infinities (the paper's generator
// guarantees overlapping support; ours smooths instead of assuming it).
#pragma once

#include <span>
#include <vector>

namespace decloud::stats {

/// KL(p ‖ q) in nats with additive (Laplace) smoothing of 1e-9 applied to
/// both distributions before renormalization.  Inputs must be equal-length,
/// non-negative; they are normalized internally.
[[nodiscard]] double kl_divergence(std::span<const double> p, std::span<const double> q);

/// The paper's similarity metric: 1 − KLD(p, q), clamped to [0, 1].
[[nodiscard]] double similarity(std::span<const double> p, std::span<const double> q);

}  // namespace decloud::stats
