#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace decloud::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

TEST(PowMod, BasicIdentities) {
  EXPECT_EQ(pow_mod(2, 0), 1u);
  EXPECT_EQ(pow_mod(2, 1), 2u);
  EXPECT_EQ(pow_mod(2, 10), 1024u);
  EXPECT_EQ(pow_mod(0, 5), 0u);
  EXPECT_EQ(pow_mod(1, UINT64_MAX), 1u);
}

TEST(PowMod, FermatLittleTheorem) {
  // g^(p-1) ≡ 1 (mod p) for the Mersenne prime p = 2^61 − 1.
  EXPECT_EQ(pow_mod(kGenerator, kFieldPrime - 1), 1u);
  EXPECT_EQ(pow_mod(1234567891011ULL, kFieldPrime - 1), 1u);
}

TEST(Signature, SignVerifyRoundtrip) {
  Rng rng(1);
  const KeyPair kp = generate_keypair(rng);
  const auto msg = bytes_of("a sealed bid");
  const Signature sig = sign(kp.priv, msg);
  EXPECT_TRUE(verify(kp.pub, msg, sig));
}

TEST(Signature, WrongMessageFails) {
  Rng rng(2);
  const KeyPair kp = generate_keypair(rng);
  const Signature sig = sign(kp.priv, bytes_of("original"));
  EXPECT_FALSE(verify(kp.pub, bytes_of("tampered"), sig));
  EXPECT_FALSE(verify(kp.pub, bytes_of(""), sig));
}

TEST(Signature, WrongKeyFails) {
  Rng rng(3);
  const KeyPair kp1 = generate_keypair(rng);
  const KeyPair kp2 = generate_keypair(rng);
  const auto msg = bytes_of("msg");
  EXPECT_FALSE(verify(kp2.pub, msg, sign(kp1.priv, msg)));
}

TEST(Signature, TamperedSignatureFails) {
  Rng rng(4);
  const KeyPair kp = generate_keypair(rng);
  const auto msg = bytes_of("msg");
  Signature sig = sign(kp.priv, msg);
  Signature bad_r = sig;
  bad_r.r ^= 1;
  EXPECT_FALSE(verify(kp.pub, msg, bad_r));
  Signature bad_s = sig;
  bad_s.s += 1;
  EXPECT_FALSE(verify(kp.pub, msg, bad_s));
}

TEST(Signature, DegenerateInputsRejected) {
  Rng rng(5);
  const KeyPair kp = generate_keypair(rng);
  const auto msg = bytes_of("msg");
  Signature sig = sign(kp.priv, msg);
  sig.r = 0;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
  sig.r = kFieldPrime;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
  PublicKey zero_key{.y = 0};
  EXPECT_FALSE(verify(zero_key, msg, sign(kp.priv, msg)));
}

TEST(Signature, SigningIsDeterministic) {
  // RFC 6979-style derived nonce: identical (key, message) → identical
  // signature, different messages → different nonces.
  Rng rng(6);
  const KeyPair kp = generate_keypair(rng);
  const auto m1 = bytes_of("m1");
  const auto m2 = bytes_of("m2");
  EXPECT_EQ(sign(kp.priv, m1), sign(kp.priv, m1));
  EXPECT_NE(sign(kp.priv, m1).r, sign(kp.priv, m2).r);
}

TEST(Signature, MessagePartsSignAsTheirConcatenation) {
  Rng rng(9);
  const KeyPair kp = generate_keypair(rng);
  const auto msg = bytes_of("kind | nonce | ciphertext | sender");
  const std::span<const std::uint8_t> all(msg);
  const std::span<const std::uint8_t> parts[] = {all.first(4), all.subspan(4, 9), all.subspan(13)};
  const Signature whole = sign(kp.priv, all);
  EXPECT_EQ(sign(kp.priv, parts), whole);
  EXPECT_TRUE(verify(kp.pub, parts, whole));
  const std::span<const std::uint8_t> short_parts[] = {all.first(4), all.subspan(5)};
  EXPECT_FALSE(verify(kp.pub, short_parts, whole));
}

TEST(Signature, FingerprintIsStablePerKey) {
  Rng rng(7);
  const KeyPair a = generate_keypair(rng);
  const KeyPair b = generate_keypair(rng);
  EXPECT_EQ(a.pub.fingerprint(), a.pub.fingerprint());
  EXPECT_NE(a.pub.fingerprint(), b.pub.fingerprint());
}

class SignatureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignatureSweep, RandomKeypairsRoundtrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    const KeyPair kp = generate_keypair(rng);
    ASSERT_GT(kp.priv.x, 0u);
    ASSERT_LT(kp.pub.y, kFieldPrime);
    const auto msg = bytes_of("message-" + std::to_string(i));
    const Signature sig = sign(kp.priv, msg);
    EXPECT_TRUE(verify(kp.pub, msg, sig));
    EXPECT_FALSE(verify(kp.pub, bytes_of("other"), sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureSweep, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace decloud::crypto
