// HMAC-SHA256 (RFC 2104) — used to derive per-bid temporary encryption keys
// and as the keystream PRF fallback in tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace decloud::crypto {

/// Computes HMAC-SHA256(key, message).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// HMAC-SHA256 of the concatenated parts, streamed into the inner hash.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key, MessageParts message);

/// HKDF-style expansion: derives `n` bytes from a key and an info label.
/// Output is the concatenation of HMAC(key, info || counter) blocks.
[[nodiscard]] std::vector<std::uint8_t> derive_bytes(std::span<const std::uint8_t> key,
                                                     std::span<const std::uint8_t> info,
                                                     std::size_t n);

}  // namespace decloud::crypto
