// WAL segment framing: roundtrip, valid-prefix-wins torn tails, CRC
// rejection, input-sequence density, and re-attach truncation
// (DESIGN.md §3k).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/byte_buffer.hpp"
#include "crypto/sha256.hpp"
#include "journal/wire.hpp"
#include "wal/wal.hpp"

namespace decloud::wal {
namespace {

namespace wire = journal::wire;
namespace fs = std::filesystem;

constexpr std::uint64_t kFp = 0xD15EA5EDULL;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

std::vector<std::uint8_t> payload(std::initializer_list<std::uint8_t> bytes) { return bytes; }

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

void truncate_file(const std::string& path, std::uint64_t size) {
  fs::resize_file(path, size);
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(Wal, WriterReaderRoundTrip) {
  const std::string dir = fresh_dir("wal_roundtrip");
  crypto::Digest digest{};
  digest[0] = 0xAB;
  {
    const auto writer = WalWriter::create({dir, 2, kFp, /*sync=*/false});
    EXPECT_EQ(writer->append_bid(1, false, payload({1, 2, 3})), 0u);
    EXPECT_EQ(writer->append_bid(0, true, payload({4})), 1u);
    EXPECT_EQ(writer->append_flush(), 2u);
    writer->append_block(0, 1, digest);
    EXPECT_EQ(writer->next_input_seq(), 3u);
  }

  const WalContents contents = load_wal(dir, 2, kFp);
  ASSERT_EQ(contents.inputs.size(), 3u);
  EXPECT_EQ(contents.next_input_seq, 3u);
  EXPECT_EQ(contents.inputs[0].kind, RecordKind::kBid);
  EXPECT_EQ(contents.inputs[0].segment, 1u);
  EXPECT_FALSE(contents.inputs[0].is_offer);
  EXPECT_EQ(contents.inputs[0].payload, payload({1, 2, 3}));
  EXPECT_EQ(contents.inputs[1].kind, RecordKind::kBid);
  EXPECT_TRUE(contents.inputs[1].is_offer);
  EXPECT_EQ(contents.inputs[2].kind, RecordKind::kFlush);
  ASSERT_EQ(contents.blocks.size(), 1u);
  EXPECT_EQ(contents.blocks.at({0, 1}), digest);
}

TEST(Wal, RetiredTickKindThrows) {
  // Kinds 1 (the retired scheduler-tick record) and 2 (the retired stream
  // clock-advance record) are reserved: an intact, CRC-valid frame
  // carrying either is corruption, not a torn tail.
  for (const std::uint8_t kind : {kRetiredTickKind, kRetiredClockAdvanceKind}) {
    const std::string dir = fresh_dir("wal_retired_kind_" + std::to_string(kind));
    { const auto writer = WalWriter::create({dir, 1, kFp, false}); }
    ByteWriter record;
    record.write_u8(kind);
    wire::write_varint(record, 0);  // input_seq
    const std::vector<std::uint8_t>& bytes = record.bytes();
    ByteWriter frame;
    frame.write_u32(static_cast<std::uint32_t>(bytes.size()));
    for (const std::uint8_t b : bytes) frame.write_u8(b);
    frame.write_u32(wire::crc32(bytes));
    std::ofstream control(fs::path(dir) / segment_file_name(0),
                          std::ios::binary | std::ios::app);
    control.write(reinterpret_cast<const char*>(frame.bytes().data()),
                  static_cast<std::streamsize>(frame.bytes().size()));
    control.close();
    EXPECT_THROW(load_wal(dir, 1, kFp), wire::decode_error) << "kind " << int{kind};
  }
}

TEST(Wal, MissingSegmentThrows) {
  const std::string dir = fresh_dir("wal_missing");
  { const auto writer = WalWriter::create({dir, 2, kFp, false}); }
  fs::remove(fs::path(dir) / segment_file_name(2));
  EXPECT_THROW(load_wal(dir, 2, kFp), wire::decode_error);
}

TEST(Wal, FingerprintMismatchThrows) {
  const std::string dir = fresh_dir("wal_fp");
  { const auto writer = WalWriter::create({dir, 1, kFp, false}); }
  EXPECT_THROW(load_wal(dir, 1, kFp + 1), wire::decode_error);
}

TEST(Wal, TornTailTruncatesToValidPrefix) {
  const std::string dir = fresh_dir("wal_torn");
  {
    const auto writer = WalWriter::create({dir, 1, kFp, false});
    (void)writer->append_bid(1, false, payload({1, 2, 3}));
    (void)writer->append_bid(1, false, payload({4, 5, 6}));
  }
  const std::string shard = (fs::path(dir) / segment_file_name(1)).string();
  const WalContents whole = load_wal(dir, 1, kFp);
  ASSERT_EQ(whole.inputs.size(), 2u);
  const std::uint64_t full = file_size(shard);

  // Cut anywhere inside the last frame: the first record survives, the
  // torn one is dropped, valid_bytes points at the cut boundary.
  for (const std::uint64_t cut : {full - 1, full - 5, whole.valid_bytes[1] + 1}) {
    truncate_file(shard, cut);
    const SegmentContents seg = read_segment(shard, 1, kFp);
    ASSERT_EQ(seg.records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(seg.records[0].payload, payload({1, 2, 3}));
    EXPECT_LT(seg.valid_bytes, cut + 1);
  }
}

TEST(Wal, CrcFlipDropsTail) {
  const std::string dir = fresh_dir("wal_crc");
  std::uint64_t first_end = 0;
  {
    const auto writer = WalWriter::create({dir, 1, kFp, false});
    (void)writer->append_bid(1, false, payload({1, 2, 3}));
    first_end = file_size((fs::path(dir) / segment_file_name(1)).string());
    (void)writer->append_bid(1, false, payload({4, 5, 6}));
  }
  const std::string shard = (fs::path(dir) / segment_file_name(1)).string();
  // Flip a byte inside the SECOND record's payload: its CRC fails, and
  // valid-prefix-wins keeps only the first record.
  flip_byte(shard, first_end + 6);
  const SegmentContents seg = read_segment(shard, 1, kFp);
  ASSERT_EQ(seg.records.size(), 1u);
  EXPECT_EQ(seg.valid_bytes, first_end);
}

TEST(Wal, HeaderCorruptionThrows) {
  const std::string dir = fresh_dir("wal_hdr");
  { const auto writer = WalWriter::create({dir, 1, kFp, false}); }
  const std::string control = (fs::path(dir) / segment_file_name(0)).string();
  // Frame 0 layout: u32 len | "DCW1" ... — flip the magic's first byte.
  flip_byte(control, 4);
  EXPECT_THROW(read_segment(control, 0, kFp), wire::decode_error);
  // A truncated header (no intact frame at all) is also fatal: a WAL
  // whose header cannot be read offers no valid prefix to recover.
  truncate_file(control, 3);
  EXPECT_THROW(read_segment(control, 0, kFp), wire::decode_error);
}

TEST(Wal, InputSequenceGapThrows) {
  const std::string dir = fresh_dir("wal_gap");
  const std::string shard = (fs::path(dir) / segment_file_name(1)).string();
  std::uint64_t header_end = 0;
  {
    const auto writer = WalWriter::create({dir, 1, kFp, false});
    header_end = file_size(shard);  // header frame only, no records yet
    (void)writer->append_bid(0, false, payload({1}));  // seq 0 -> control
    (void)writer->append_bid(1, false, payload({2}));  // seq 1 -> shard
    (void)writer->append_bid(0, false, payload({3}));  // seq 2 -> control
  }
  // Dropping the shard record leaves {0, 2}: a gap, not a torn tail —
  // segment-local truncation cannot be told apart from a lost input, so
  // the merged sequence check must refuse it.
  truncate_file(shard, header_end);
  EXPECT_THROW(load_wal(dir, 1, kFp), wire::decode_error);
}

TEST(Wal, DuplicateBlockDigestsMustAgree) {
  const std::string dir = fresh_dir("wal_blocks");
  crypto::Digest a{};
  a[0] = 1;
  crypto::Digest b{};
  b[0] = 2;
  {
    const auto writer = WalWriter::create({dir, 1, kFp, false});
    writer->append_block(0, 1, a);
    writer->append_block(0, 1, a);  // equal duplicate: a re-drained round
  }
  EXPECT_EQ(load_wal(dir, 1, kFp).blocks.size(), 1u);
  {
    const auto writer =
        WalWriter::attach({dir, 1, kFp, false}, load_wal(dir, 1, kFp).valid_bytes, 0);
    writer->append_block(0, 1, b);  // disagreeing digest: corruption
  }
  EXPECT_THROW(load_wal(dir, 1, kFp), wire::decode_error);
}

TEST(Wal, AttachTruncatesTornTailAndContinuesSeq) {
  const std::string dir = fresh_dir("wal_attach");
  {
    const auto writer = WalWriter::create({dir, 1, kFp, false});
    (void)writer->append_bid(1, false, payload({1}));
    (void)writer->append_bid(1, false, payload({2}));
  }
  const std::string shard = (fs::path(dir) / segment_file_name(1)).string();
  truncate_file(shard, file_size(shard) - 2);  // tear the second record
  const WalContents contents = load_wal(dir, 1, kFp);
  ASSERT_EQ(contents.inputs.size(), 1u);
  {
    const auto writer =
        WalWriter::attach({dir, 1, kFp, false}, contents.valid_bytes, contents.next_input_seq);
    EXPECT_EQ(writer->next_input_seq(), 1u);
    EXPECT_EQ(writer->append_bid(1, false, payload({9})), 1u);
  }
  const WalContents after = load_wal(dir, 1, kFp);
  ASSERT_EQ(after.inputs.size(), 2u);
  EXPECT_EQ(after.inputs[1].payload, payload({9}));
}

}  // namespace
}  // namespace decloud::wal
