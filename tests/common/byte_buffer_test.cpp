#include "common/byte_buffer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/ensure.hpp"

namespace decloud {
namespace {

TEST(ByteBuffer, RoundtripsScalars) {
  ByteWriter w;
  w.write_u8(0xab);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_i64(-42);
  w.write_double(3.141592653589793);

  ByteReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.read_u8(), 0xab);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_double(), 3.141592653589793);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RoundtripsSpecialDoubles) {
  ByteWriter w;
  w.write_double(std::numeric_limits<double>::infinity());
  w.write_double(-std::numeric_limits<double>::infinity());
  w.write_double(std::numeric_limits<double>::quiet_NaN());
  w.write_double(-0.0);
  w.write_double(std::numeric_limits<double>::denorm_min());

  ByteReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_TRUE(std::isinf(r.read_double()));
  EXPECT_TRUE(std::isinf(r.read_double()));
  EXPECT_TRUE(std::isnan(r.read_double()));
  const double neg_zero = r.read_double();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.read_double(), std::numeric_limits<double>::denorm_min());
}

TEST(ByteBuffer, RoundtripsBytes) {
  ByteWriter w;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 0, 255};
  w.write_bytes(blob);
  w.write_bytes({});

  ByteReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.read_bytes(), blob);
  EXPECT_TRUE(r.read_bytes().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteWriter w;
  w.write_u32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(ByteBuffer, TruncatedScalarThrows) {
  const std::vector<std::uint8_t> short_buf = {1, 2};
  ByteReader r({short_buf.data(), short_buf.size()});
  EXPECT_THROW(r.read_u32(), precondition_error);
}

TEST(ByteBuffer, TruncatedPayloadThrows) {
  ByteWriter w;
  w.write_u32(100);  // claims 100 bytes follow
  ByteReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(r.read_bytes(), precondition_error);
}

TEST(ByteBuffer, EmptyReaderState) {
  ByteReader r({});
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.read_u8(), precondition_error);
}

TEST(ByteBuffer, RemainingCountsDown) {
  ByteWriter w;
  w.write_u64(1);
  w.write_u64(2);
  ByteReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.remaining(), 16u);
  (void)r.read_u64();
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read_u64();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteBuffer, TakeMovesBuffer) {
  ByteWriter w;
  w.write_u8(7);
  const auto bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 7);
}

}  // namespace
}  // namespace decloud
