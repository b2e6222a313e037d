#include "ledger/sealed_bid.hpp"

#include <gtest/gtest.h>

#include "common/byte_buffer.hpp"
#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "ledger/codec.hpp"

namespace decloud::ledger {
namespace {

struct Fixture {
  Rng rng{1};
  crypto::KeyPair signer = crypto::generate_keypair(rng);
  crypto::SymmetricKey key{};
  crypto::Nonce nonce{};
  std::vector<std::uint8_t> plaintext;

  Fixture() {
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
    nonce[0] = 9;
    auction::Request r;
    r.id = RequestId(1);
    r.client = ClientId(1);
    r.resources.set(auction::ResourceSchema::kCpu, 1.0);
    r.window_end = 7200;
    r.duration = 3600;
    r.bid = 1.5;
    plaintext = encode_request(r);
  }
};

TEST(SealedBid, CiphertextHidesPlaintext) {
  Fixture f;
  const SealedBid bid = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  EXPECT_EQ(bid.ciphertext.size(), f.plaintext.size());
  EXPECT_NE(bid.ciphertext, f.plaintext);
}

TEST(SealedBid, SignatureVerifies) {
  Fixture f;
  const SealedBid bid = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  EXPECT_TRUE(verify_sealed_bid(bid));
}

TEST(SealedBid, TamperedCiphertextFailsSignature) {
  Fixture f;
  SealedBid bid = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  bid.ciphertext[0] ^= 0xff;
  EXPECT_FALSE(verify_sealed_bid(bid));
}

TEST(SealedBid, SwappedSenderFailsSignature) {
  Fixture f;
  SealedBid bid = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  const crypto::KeyPair other = crypto::generate_keypair(f.rng);
  bid.sender = other.pub;
  EXPECT_FALSE(verify_sealed_bid(bid));
}

TEST(SealedBid, OpensWithCorrectKey) {
  Fixture f;
  const SealedBid bid = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  const auto opened = open_bid(bid, f.key);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, f.plaintext);
  EXPECT_NO_THROW(decode_request(*opened));
}

TEST(SealedBid, WrongKeyRejectedByKindTag) {
  Fixture f;
  const SealedBid bid = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  crypto::SymmetricKey wrong = f.key;
  wrong[0] ^= 1;
  const auto opened = open_bid(bid, wrong);
  // The kind-tag check rejects a wrong key unless the garbled first byte
  // happens to collide (1/256); this specific key does not collide.
  if (opened.has_value()) {
    EXPECT_THROW(decode_request(*opened), precondition_error);
  } else {
    SUCCEED();
  }
}

TEST(SealedBid, DigestIdentifiesContent) {
  Fixture f;
  const SealedBid a = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  const SealedBid b = seal_bid(BidKind::kRequest, f.plaintext, f.key, f.nonce, f.signer);
  EXPECT_EQ(a.digest(), b.digest());  // deterministic
  crypto::Nonce other_nonce = f.nonce;
  other_nonce[1] = 1;
  const SealedBid c = seal_bid(BidKind::kRequest, f.plaintext, f.key, other_nonce, f.signer);
  EXPECT_NE(a.digest(), c.digest());
}

// The payload is streamed into the hash and the signature; its bytes are
// still the ByteWriter encoding kind ‖ nonce ‖ ciphertext ‖ sender.
TEST(SealedBid, DigestAndSignatureCoverTheCanonicalPayload) {
  Fixture f;
  const SealedBid bid = seal_bid(BidKind::kOffer, f.plaintext, f.key, f.nonce, f.signer);
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(BidKind::kOffer));
  w.write_bytes(f.nonce);
  w.write_bytes(bid.ciphertext);
  w.write_u64(bid.sender.y);
  const std::span<const std::uint8_t> payload(w.bytes());
  EXPECT_EQ(bid.digest(), crypto::Sha256::hash(payload));
  EXPECT_EQ(bid.signature, crypto::sign(f.signer.priv, payload));
  EXPECT_TRUE(crypto::verify(bid.sender, payload, bid.signature));
}

TEST(SealedBid, OfferKindRoundtrip) {
  Fixture f;
  auction::Offer o;
  o.id = OfferId(2);
  o.provider = ProviderId(2);
  o.resources.set(auction::ResourceSchema::kCpu, 4.0);
  o.window_end = 86400;
  o.bid = 0.5;
  const auto plaintext = encode_offer(o);
  const SealedBid bid = seal_bid(BidKind::kOffer, plaintext, f.key, f.nonce, f.signer);
  EXPECT_TRUE(verify_sealed_bid(bid));
  const auto opened = open_bid(bid, f.key);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(decode_offer(*opened).id, OfferId(2));
}

TEST(SealedBid, KindMismatchRejectedOnOpen) {
  Fixture f;
  // Sealed as an offer but carrying request bytes: the tag check fires.
  const SealedBid bid = seal_bid(BidKind::kOffer, f.plaintext, f.key, f.nonce, f.signer);
  EXPECT_FALSE(open_bid(bid, f.key).has_value());
}

}  // namespace
}  // namespace decloud::ledger
