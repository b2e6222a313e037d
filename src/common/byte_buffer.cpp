#include "common/byte_buffer.hpp"

#include <bit>

namespace decloud {

void ByteWriter::write_u32(std::uint32_t v) {
  const auto bytes = le_bytes(v);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_u64(std::uint64_t v) {
  const auto bytes = le_bytes(v);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_double(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  DECLOUD_EXPECTS(bytes.size() <= UINT32_MAX);
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteReader::require(std::size_t n) {
  DECLOUD_EXPECTS_MSG(remaining() >= n, "truncated message");
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::read_double() { return std::bit_cast<double>(read_u64()); }

std::vector<std::uint8_t> ByteReader::read_bytes() {
  const std::uint32_t n = read_u32();
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace decloud
