// Sealed bids — Section III-A of the paper.
//
// "Participants encrypt [bids] entirely with temporary keys prior to
// submission."  A sealed bid is the ChaCha20 ciphertext of the canonical
// bid bytes under a fresh temporary key, signed by the participant's
// long-term key so the miner can attribute it and detect tampering.  The
// temporary key is broadcast only after the participant has seen its bid
// inside a valid preamble.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"

namespace decloud::ledger {

/// The kind of plaintext a sealed bid carries.
enum class BidKind : std::uint8_t { kRequest = 1, kOffer = 2 };

/// A sealed (encrypted, signed) bid as it travels to the miners.
struct SealedBid {
  BidKind kind = BidKind::kRequest;
  /// ChaCha20 ciphertext of the canonical bid bytes.
  std::vector<std::uint8_t> ciphertext;
  /// Public nonce used for the encryption.
  crypto::Nonce nonce{};
  /// The submitter's long-term public key (its fingerprint is the ledger
  /// address).
  crypto::PublicKey sender;
  /// Signature with the long-term key over the signed payload: kind ‖
  /// nonce ‖ ciphertext ‖ sender, in ByteWriter's encoding (u8 kind,
  /// u32-length-prefixed nonce and ciphertext, u64 sender.y).
  crypto::Signature signature;

  /// SHA-256 of the signed payload: the id of this sealed bid and its
  /// Merkle leaf in the preamble.  The payload is streamed into the hash,
  /// never built.
  [[nodiscard]] crypto::Digest digest() const;
};

/// A temporary key disclosure: "participants broadcast their temporary
/// keys to the network" once the preamble is valid.
struct KeyReveal {
  crypto::Digest bid_digest{};  ///< which sealed bid this key opens
  crypto::SymmetricKey key{};
};

/// Seals plaintext bid bytes: encrypts with `key`/`nonce` and signs with
/// the participant's long-term key.
[[nodiscard]] SealedBid seal_bid(BidKind kind, std::span<const std::uint8_t> plaintext,
                                 const crypto::SymmetricKey& key, const crypto::Nonce& nonce,
                                 const crypto::KeyPair& signer);

/// Verifies the signature of a sealed bid.
[[nodiscard]] bool verify_sealed_bid(const SealedBid& bid);

/// Opens a sealed bid with a revealed key.  Returns nullopt if the key does
/// not decrypt to a payload of the declared kind (wrong key / tampering —
/// decode errors are contained, not propagated).
[[nodiscard]] std::optional<std::vector<std::uint8_t>> open_bid(const SealedBid& bid,
                                                                const crypto::SymmetricKey& key);

}  // namespace decloud::ledger
