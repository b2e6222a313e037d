#include "crypto/signature.hpp"

#include "common/byte_buffer.hpp"
#include "crypto/hmac.hpp"

namespace decloud::crypto {

namespace {

constexpr std::uint64_t kOrder = kFieldPrime - 1;  // exponents live mod p-1

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>((static_cast<__uint128_t>(a) * b) % kFieldPrime);
}

std::uint64_t mod_order(std::uint64_t v) { return v % kOrder; }

/// Challenge e = H(r || message) reduced mod (p-1).
std::uint64_t challenge(std::uint64_t r, MessageParts message) {
  const Digest d = Sha256().update(le_bytes(r)).update(message).finish();
  std::uint64_t e = 0;
  for (int i = 0; i < 8; ++i) e = (e << 8) | d[static_cast<std::size_t>(i)];
  return mod_order(e);
}

}  // namespace

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t result = 1;
  std::uint64_t b = base % kFieldPrime;
  while (exp > 0) {
    if (exp & 1) result = mul_mod(result, b);
    b = mul_mod(b, b);
    exp >>= 1;
  }
  return result;
}

Digest PublicKey::fingerprint() const { return Sha256::hash(le_bytes(y)); }

KeyPair generate_keypair(Rng& rng) {
  // x uniform in [1, p-2]; avoid 0 (degenerate key).
  const std::uint64_t x = 1 + rng.next_below(kOrder - 1);
  return {.priv = {.x = x}, .pub = {.y = pow_mod(kGenerator, x)}};
}

Signature sign(const PrivateKey& key, std::span<const std::uint8_t> message) {
  const std::span<const std::uint8_t> parts[] = {message};
  return sign(key, parts);
}

Signature sign(const PrivateKey& key, MessageParts message) {
  // Deterministic nonce: k = HMAC(x, message) mod (p-1), never zero.
  const Digest kd = hmac_sha256(le_bytes(key.x), message);
  std::uint64_t k = 0;
  for (int i = 0; i < 8; ++i) k = (k << 8) | kd[static_cast<std::size_t>(i)];
  k = 1 + mod_order(k) % (kOrder - 1);

  const std::uint64_t r = pow_mod(kGenerator, k);
  const std::uint64_t e = challenge(r, message);
  // s = k - x·e mod (p-1)
  const std::uint64_t xe = static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(key.x) * e) % kOrder);
  const std::uint64_t s = (k + kOrder - xe % kOrder) % kOrder;
  return {.r = r, .s = s};
}

bool verify(const PublicKey& key, std::span<const std::uint8_t> message, const Signature& sig) {
  const std::span<const std::uint8_t> parts[] = {message};
  return verify(key, parts, sig);
}

bool verify(const PublicKey& key, MessageParts message, const Signature& sig) {
  if (sig.r == 0 || sig.r >= kFieldPrime || key.y == 0 || key.y >= kFieldPrime) return false;
  const std::uint64_t e = challenge(sig.r, message);
  // Check g^s · y^e == r.
  const std::uint64_t lhs = mul_mod(pow_mod(kGenerator, sig.s), pow_mod(key.y, e));
  return lhs == sig.r;
}

}  // namespace decloud::crypto
