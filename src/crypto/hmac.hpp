// HMAC-SHA256 (RFC 2104) — keys the deterministic signature nonce
// (crypto/signature.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace decloud::crypto {

/// Computes HMAC-SHA256(key, message).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// HMAC-SHA256 of the concatenated parts, streamed into the inner hash.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key, MessageParts message);

}  // namespace decloud::crypto
