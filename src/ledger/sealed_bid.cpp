#include "ledger/sealed_bid.hpp"

#include <array>
#include <span>
#include <tuple>

#include "common/byte_buffer.hpp"
#include "common/ensure.hpp"

namespace decloud::ledger {

namespace {

/// The signed payload as three parts: its framing up to the ciphertext
/// (kind ‖ u32 12 ‖ nonce ‖ u32 ciphertext size) and the sender, both
/// encoded on the stack, around the ciphertext read in place.  Hashing,
/// signing and verifying stream the parts (crypto::MessageParts).
class SignedPayload {
 public:
  explicit SignedPayload(const SealedBid& bid)
      : ciphertext_(bid.ciphertext), sender_(le_bytes(bid.sender.y)) {
    DECLOUD_EXPECTS(bid.ciphertext.size() <= UINT32_MAX);
    head_.write_u8(static_cast<std::uint8_t>(bid.kind));
    head_.write_bytes(bid.nonce);
    head_.write_u32(static_cast<std::uint32_t>(bid.ciphertext.size()));
  }

  [[nodiscard]] std::array<std::span<const std::uint8_t>, 3> parts() const {
    return {head_.bytes(), ciphertext_, sender_};
  }

 private:
  FixedWriter<1 + 4 + std::tuple_size_v<crypto::Nonce> + 4> head_;
  std::span<const std::uint8_t> ciphertext_;
  std::array<std::uint8_t, 8> sender_;
};

}  // namespace

crypto::Digest SealedBid::digest() const {
  return crypto::Sha256().update(SignedPayload(*this).parts()).finish();
}

SealedBid seal_bid(BidKind kind, std::span<const std::uint8_t> plaintext,
                   const crypto::SymmetricKey& key, const crypto::Nonce& nonce,
                   const crypto::KeyPair& signer) {
  SealedBid bid;
  bid.kind = kind;
  bid.nonce = nonce;
  bid.ciphertext = crypto::chacha20_xor(key, nonce, plaintext);
  bid.sender = signer.pub;
  bid.signature = crypto::sign(signer.priv, SignedPayload(bid).parts());
  return bid;
}

bool verify_sealed_bid(const SealedBid& bid) {
  return crypto::verify(bid.sender, SignedPayload(bid).parts(), bid.signature);
}

std::optional<std::vector<std::uint8_t>> open_bid(const SealedBid& bid,
                                                  const crypto::SymmetricKey& key) {
  auto plaintext = crypto::chacha20_xor(key, bid.nonce, bid.ciphertext);
  if (plaintext.empty()) return std::nullopt;
  // The first plaintext byte is the codec tag; it must agree with the
  // declared kind, which catches a wrong key with high probability before
  // the full decode runs.
  const std::uint8_t tag = plaintext.front();
  if (tag != static_cast<std::uint8_t>(bid.kind)) return std::nullopt;
  return plaintext;
}

}  // namespace decloud::ledger
