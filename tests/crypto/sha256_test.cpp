#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ensure.hpp"
#include "common/hex.hpp"

namespace decloud::crypto {
namespace {

// FIPS 180-4 / NIST CAVP test vectors.

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string m(64, 'a');
  EXPECT_EQ(to_hex(Sha256::hash(m)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits the same block; 56: forces an extra block.
  EXPECT_EQ(to_hex(Sha256::hash(std::string(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(to_hex(Sha256::hash(std::string(56, 'a'))),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split at " << split;
  }
}

TEST(Sha256, MessagePartsHashAsTheirConcatenation) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  const std::vector<std::uint8_t> bytes(msg.begin(), msg.end());
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::span<const std::uint8_t> parts[] = {all.first(split), {}, all.subspan(split)};
    EXPECT_EQ(Sha256().update(parts).finish(), Sha256::hash(msg)) << "split at " << split;
  }
}

TEST(Sha256, ByteSpanOverloadAgrees) {
  const std::string msg = "payload";
  const std::vector<std::uint8_t> bytes(msg.begin(), msg.end());
  EXPECT_EQ(Sha256::hash(msg), Sha256::hash({bytes.data(), bytes.size()}));
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update("x");
  (void)h.finish();
  EXPECT_THROW(h.update("y"), precondition_error);
  Sha256 h2;
  (void)h2.finish();
  EXPECT_THROW((void)h2.finish(), precondition_error);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash("a"), Sha256::hash("b"));
  EXPECT_NE(Sha256::hash(""), Sha256::hash(std::string(1, '\0')));
}

TEST(Sha256, DigestHashFunctorUsesLeadingBytes) {
  const Digest d = Sha256::hash("seed");
  const std::size_t h = DigestHash{}(d);
  std::size_t expect = 0;
  for (int i = 0; i < 8; ++i) expect = (expect << 8) | d[static_cast<std::size_t>(i)];
  EXPECT_EQ(h, expect);
}

}  // namespace
}  // namespace decloud::crypto
