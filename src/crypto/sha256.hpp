// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for block hashing, proof-of-work, Merkle trees, key fingerprints and
// the verifiable-randomization seed.  Incremental interface so large block
// bodies and multi-part messages (MessageParts) are hashed without copying
// or allocating.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace decloud::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// A message given as consecutive byte spans.  Hashing, signing or MACing
/// the parts gives the result for their concatenation, which is never
/// built: a canonical encoding is streamed field by field.
using MessageParts = std::span<const std::span<const std::uint8_t>>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Feeds more input.  May be called any number of times.
  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);
  /// Feeds each part in order.
  Sha256& update(MessageParts parts);

  /// Finalizes and returns the digest.  The hasher must not be reused
  /// afterwards (create a new one instead).
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data);
  [[nodiscard]] static Digest hash(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
  bool finished_ = false;
};

/// The first 8 bytes of a digest folded big-endian into one word: the
/// block-hash lottery seed, a key's ledger address and DigestHash all use
/// this one fold.
[[nodiscard]] inline std::uint64_t fold_digest(const Digest& d) noexcept {
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < 8; ++i) folded = (folded << 8) | d[i];
  return folded;
}

/// Hash functor so digests can key unordered containers.  Uses the first 8
/// bytes — already uniformly distributed for a cryptographic digest.
struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    return static_cast<std::size_t>(fold_digest(d));
  }
};

}  // namespace decloud::crypto
