#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/hex.hpp"

namespace decloud::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// RFC 4231 test vectors.

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto msg = bytes_of("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto key = bytes_of("Jefe");
  const auto msg = bytes_of("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  // Keys longer than the block size are hashed first.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto msg = bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const auto msg = bytes_of("msg");
  EXPECT_NE(hmac_sha256(bytes_of("k1"), msg), hmac_sha256(bytes_of("k2"), msg));
}

}  // namespace
}  // namespace decloud::crypto
