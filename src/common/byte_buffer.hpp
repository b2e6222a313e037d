// Canonical binary serialization.
//
// Bids, blocks, and allocation suggestions must hash and sign identically on
// every node, so all wire encoding goes through this single little-endian,
// length-prefixed format.  Doubles are encoded via their IEEE-754 bit
// pattern, which is exact and portable on every platform we target.
//
// ByteWriter builds an encoding that is kept (WAL frames, journal, block
// bodies).  An encoding that is only hashed has a fixed length and goes
// into a FixedWriter on the stack instead: same bytes, no heap.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/ensure.hpp"

namespace decloud {

/// Little-endian bytes of `v`: the encoding of every unsigned integer.
template <std::unsigned_integral T>
[[nodiscard]] constexpr std::array<std::uint8_t, sizeof(T)> le_bytes(T v) {
  std::array<std::uint8_t, sizeof(T)> out{};
  for (std::size_t i = 0; i < sizeof(T); ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

/// Append-only encoder producing the canonical byte representation.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_double(double v);
  /// Length-prefixed (u32) raw bytes.
  void write_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// ByteWriter's encoding into a stack array of exactly N bytes, for
/// encodings that are hashed and dropped.
template <std::size_t N>
class FixedWriter {
 public:
  void write_u8(std::uint8_t v) { put({&v, 1}); }
  void write_u32(std::uint32_t v) { put(le_bytes(v)); }
  void write_u64(std::uint64_t v) { put(le_bytes(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u32) raw bytes.
  void write_bytes(std::span<const std::uint8_t> bytes) {
    write_u32(static_cast<std::uint32_t>(bytes.size()));
    put(bytes);  // fails for any size a u32 cannot hold: N is far smaller
  }

  /// The encoding, once all N bytes are written.
  [[nodiscard]] const std::array<std::uint8_t, N>& bytes() const {
    DECLOUD_EXPECTS_MSG(len_ == N, "FixedWriter read before all of its bytes were written");
    return buf_;
  }

 private:
  void put(std::span<const std::uint8_t> bytes) {
    DECLOUD_EXPECTS_MSG(bytes.size() <= N - len_, "FixedWriter overflow");
    std::copy(bytes.begin(), bytes.end(), buf_.begin() + static_cast<std::ptrdiff_t>(len_));
    len_ += bytes.size();
  }

  std::array<std::uint8_t, N> buf_{};
  std::size_t len_ = 0;
};

/// Decoder over a byte span.  Throws precondition_error on truncated input,
/// so a malformed message from a byzantine peer cannot cause UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_double();
  std::vector<std::uint8_t> read_bytes();

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace decloud
