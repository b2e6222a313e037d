#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace decloud::crypto {

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
  const std::span<const std::uint8_t> parts[] = {message};
  return hmac_sha256(key, parts);
}

Digest hmac_sha256(std::span<const std::uint8_t> key, MessageParts message) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad{};
  std::array<std::uint8_t, kBlock> opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  const Digest inner = Sha256().update({ipad.data(), ipad.size()}).update(message).finish();
  return Sha256().update({opad.data(), opad.size()}).update({inner.data(), inner.size()}).finish();
}

}  // namespace decloud::crypto
