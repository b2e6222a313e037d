// Snapshot file atomicity: temp-file + rename discipline, latest-intact
// selection, and corrupt-snapshot rejection (DESIGN.md §3k).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "journal/wire.hpp"
#include "wal/snapshot.hpp"

namespace decloud::wal {
namespace {

namespace wire = journal::wire;
namespace fs = std::filesystem;

constexpr std::uint64_t kFp = 0xFEEDFACEULL;

std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> payload(std::initializer_list<std::uint8_t> bytes) { return bytes; }

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::binary);
  f << contents;
}

TEST(Snapshot, RoundTripAndLatestSelection) {
  const std::string dir = fresh_dir("snap_roundtrip");
  EXPECT_FALSE(find_latest_snapshot(dir).has_value());

  write_snapshot(dir, 2, payload({1, 2}), kFp, nullptr);
  write_snapshot(dir, 10, payload({3, 4, 5}), kFp, nullptr);
  write_snapshot(dir, 4, payload({6}), kFp, nullptr);

  const std::optional<std::string> latest = find_latest_snapshot(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_NE(latest->find("snapshot-10.dcs"), std::string::npos);
  const SnapshotFile snap = read_snapshot(*latest, kFp);
  EXPECT_EQ(snap.epochs, 10u);
  EXPECT_EQ(snap.payload, payload({3, 4, 5}));
}

TEST(Snapshot, StrayTempAndForeignFilesIgnored) {
  const std::string dir = fresh_dir("snap_stray");
  write_snapshot(dir, 3, payload({7}), kFp, nullptr);
  // A crash mid-snapshot leaves a .tmp behind; later files must never
  // shadow the intact snapshot, whatever their names claim.
  write_file(dir + "/snapshot-99.dcs.tmp", "torn");
  write_file(dir + "/snapshot-.dcs", "not a number");
  write_file(dir + "/snapshot-12x.dcs", "trailing junk");
  write_file(dir + "/other.dcs", "foreign");

  const std::optional<std::string> latest = find_latest_snapshot(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_NE(latest->find("snapshot-3.dcs"), std::string::npos);
  EXPECT_EQ(read_snapshot(*latest, kFp).epochs, 3u);
}

TEST(Snapshot, CorruptSnapshotThrows) {
  const std::string dir = fresh_dir("snap_corrupt");
  write_snapshot(dir, 5, payload({1, 2, 3, 4}), kFp, nullptr);
  const std::string path = dir + "/snapshot-5.dcs";

  // Wrong fingerprint.
  EXPECT_THROW(read_snapshot(path, kFp + 1), wire::decode_error);

  // Every strict prefix is a truncation.
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    EXPECT_THROW(read_snapshot(path, kFp), wire::decode_error) << "prefix " << len;
  }

  // A payload bit flip fails the CRC.
  std::string flipped = bytes;
  flipped[flipped.size() - 6] = static_cast<char>(flipped[flipped.size() - 6] ^ 0x01);
  write_file(path, flipped);
  EXPECT_THROW(read_snapshot(path, kFp), wire::decode_error);

  // Trailing junk after the CRC is rejected too.
  write_file(path, bytes + "x");
  EXPECT_THROW(read_snapshot(path, kFp), wire::decode_error);

  // A version-1 file (stream clock words and the contract's resubmission
  // list still in the payload) is refused.  The version byte after the
  // 4-byte magic lies outside the payload CRC, so only the version check
  // stands between it and a misparse.
  std::string version1 = bytes;
  ASSERT_EQ(version1[4], static_cast<char>(kSnapshotVersion));
  version1[4] = 1;
  write_file(path, version1);
  EXPECT_THROW(read_snapshot(path, kFp), wire::decode_error);
}

}  // namespace
}  // namespace decloud::wal
