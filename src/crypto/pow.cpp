#include "crypto/pow.hpp"

#include "common/byte_buffer.hpp"
#include "common/ensure.hpp"

namespace decloud::crypto {

bool meets_difficulty(const Digest& digest, unsigned difficulty_bits) {
  DECLOUD_EXPECTS(difficulty_bits <= 256);
  unsigned remaining = difficulty_bits;
  for (const std::uint8_t byte : digest) {
    if (remaining == 0) return true;
    if (remaining >= 8) {
      if (byte != 0) return false;
      remaining -= 8;
    } else {
      return (byte >> (8 - remaining)) == 0;
    }
  }
  return remaining == 0;
}

Digest pow_digest(std::span<const std::uint8_t> header, std::uint64_t nonce) {
  return Sha256().update(header).update(le_bytes(nonce)).finish();
}

std::optional<PowSolution> solve_pow(std::span<const std::uint8_t> header,
                                     unsigned difficulty_bits, std::uint64_t start_nonce,
                                     std::uint64_t max_attempts) {
  std::uint64_t nonce = start_nonce;
  for (std::uint64_t attempt = 0; attempt < max_attempts; ++attempt, ++nonce) {
    const Digest d = pow_digest(header, nonce);
    if (meets_difficulty(d, difficulty_bits)) return PowSolution{.nonce = nonce, .digest = d};
  }
  return std::nullopt;
}

bool verify_pow(std::span<const std::uint8_t> header, unsigned difficulty_bits,
                const PowSolution& solution) {
  const Digest d = pow_digest(header, solution.nonce);
  return d == solution.digest && meets_difficulty(d, difficulty_bits);
}

}  // namespace decloud::crypto
