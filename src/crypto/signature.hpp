// Schnorr-style signatures over a 61-bit prime field — SIMULATION GRADE.
//
// Participants sign their bids with private keys (Section III-A of the
// paper).  A production deployment would use secp256k1/Ed25519; this module
// substitutes a Schnorr identification-based signature over the
// multiplicative group of Z_p with p = 2^61 - 1 (a Mersenne prime), which
// exercises the identical protocol surface — keygen, sign, verify, key
// fingerprints — with portable 64/128-bit arithmetic.  See DESIGN.md §5.
// It is NOT cryptographically strong (a 61-bit discrete log is trivially
// breakable) and must never leave simulation code.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace decloud::crypto {

/// Public verification key.
struct PublicKey {
  std::uint64_t y = 0;  // y = g^x mod p

  friend bool operator==(const PublicKey&, const PublicKey&) = default;

  /// SHA-256 fingerprint; used as the participant address on the ledger.
  [[nodiscard]] Digest fingerprint() const;
};

/// Private signing key.  Keep secret (in so far as a simulation has
/// secrets); treat as move-only data in application code.
struct PrivateKey {
  std::uint64_t x = 0;
};

/// A Schnorr signature (r = g^k, s = k - x·e mod (p-1)).
struct Signature {
  std::uint64_t r = 0;
  std::uint64_t s = 0;

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// A keypair bound together for convenience.
struct KeyPair {
  PrivateKey priv;
  PublicKey pub;
};

/// Deterministically generates a keypair from an RNG (tests/simulations
/// seed this; production would use an entropy source).
[[nodiscard]] KeyPair generate_keypair(Rng& rng);

/// Signs a message.  The nonce is derived deterministically from the key
/// and message (RFC 6979 style), so signing is reproducible and never
/// reuses a nonce across messages.
[[nodiscard]] Signature sign(const PrivateKey& key, std::span<const std::uint8_t> message);
/// Signs the concatenated parts without building the concatenation.
[[nodiscard]] Signature sign(const PrivateKey& key, MessageParts message);

/// Verifies a signature.
[[nodiscard]] bool verify(const PublicKey& key, std::span<const std::uint8_t> message,
                          const Signature& sig);
[[nodiscard]] bool verify(const PublicKey& key, MessageParts message, const Signature& sig);

/// Field parameters, exposed for tests.
inline constexpr std::uint64_t kFieldPrime = (1ULL << 61) - 1;  // 2^61 - 1
inline constexpr std::uint64_t kGenerator = 37;                 // group element of large order

/// Modular exponentiation in Z_p (exposed for tests).
[[nodiscard]] std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp);

}  // namespace decloud::crypto
