#include "wal/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "common/byte_buffer.hpp"
#include "common/ensure.hpp"
#include "journal/wire.hpp"

namespace decloud::wal {
namespace {

namespace wire = journal::wire;

constexpr char kMagic[4] = {'D', 'C', 'W', '1'};

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error("wal: " + what + " " + path + ": " + std::strerror(errno));
}

std::vector<std::uint8_t> encode_header(std::size_t segment, std::uint64_t fingerprint) {
  ByteWriter w;
  for (const char c : kMagic) w.write_u8(static_cast<std::uint8_t>(c));
  w.write_u8(kWalVersion);
  wire::write_varint(w, segment);
  w.write_u64(fingerprint);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_record(const Record& record) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(record.kind));
  switch (record.kind) {
    case RecordKind::kBid:
      wire::write_varint(w, record.input_seq);
      w.write_u8(record.is_offer ? 1 : 0);
      w.write_bytes(record.payload);
      break;
    case RecordKind::kFlush:
      wire::write_varint(w, record.input_seq);
      break;
    case RecordKind::kBlockAppend:
      wire::write_varint(w, record.shard);
      wire::write_varint(w, record.height);
      for (const std::uint8_t byte : record.digest) w.write_u8(byte);
      break;
  }
  return std::move(w).take();
}

Record decode_record(std::span<const std::uint8_t> payload, std::uint64_t segment) {
  ByteReader r(payload);
  Record record;
  record.segment = segment;
  const std::uint8_t kind = wire::read_u8(r);
  wire::check(kind < kNumRecordKinds, "wal record kind out of range");
  wire::check(kind != kRetiredTickKind && kind != kRetiredClockAdvanceKind,
              "wal record kind is retired");
  record.kind = static_cast<RecordKind>(kind);
  switch (record.kind) {
    case RecordKind::kBid:
      record.input_seq = wire::read_varint(r);
      record.is_offer = wire::read_u8(r) != 0;
      record.payload = wire::read_blob(r);
      break;
    case RecordKind::kFlush:
      record.input_seq = wire::read_varint(r);
      break;
    case RecordKind::kBlockAppend:
      record.shard = wire::read_varint(r);
      record.height = wire::read_varint(r);
      for (std::uint8_t& byte : record.digest) byte = wire::read_u8(r);
      break;
  }
  wire::check(r.exhausted(), "wal record has trailing bytes");
  return record;
}

void write_all(int fd, std::span<const std::uint8_t> bytes, const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed for", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = wire::crc32(payload);
  out.push_back(static_cast<std::uint8_t>(crc & 0xff));
  out.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((crc >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((crc >> 24) & 0xff));
}

std::uint32_t read_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("open directory failed for", dir);
  (void)::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string segment_file_name(std::size_t segment) {
  if (segment == 0) return "control.dcw";
  return "shard" + std::to_string(segment - 1) + ".dcw";
}

SegmentContents read_segment(const std::string& path, std::size_t expected_segment,
                             std::uint64_t fingerprint) {
  std::ifstream in(path, std::ios::binary);
  wire::check(in.good(), "wal segment file missing or unreadable");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());

  SegmentContents contents;
  std::size_t pos = 0;
  bool saw_header = false;
  while (true) {
    // A frame needs 4 (len) + payload + 4 (crc) bytes; anything shorter at
    // the tail is a torn write and truncates the segment here.
    if (bytes.size() - pos < 4) break;
    const std::uint32_t len = read_u32_le(bytes.data() + pos);
    if (bytes.size() - pos - 4 < static_cast<std::size_t>(len) + 4) break;
    const std::span<const std::uint8_t> payload(bytes.data() + pos + 4, len);
    const std::uint32_t crc = read_u32_le(bytes.data() + pos + 4 + len);
    if (wire::crc32(payload) != crc) break;  // bit-flipped tail: valid prefix wins
    // From here the frame is intact: parse failures are real corruption.
    if (!saw_header) {
      ByteReader r(payload);
      for (const char c : kMagic) {
        wire::check(wire::read_u8(r) == static_cast<std::uint8_t>(c), "wal segment bad magic");
      }
      wire::check(wire::read_u8(r) == kWalVersion, "wal segment version unsupported");
      wire::check(wire::read_varint(r) == expected_segment, "wal segment index mismatch");
      wire::check(wire::read_u64(r) == fingerprint,
                  "wal config fingerprint mismatch (run configuration differs from the "
                  "one that wrote this WAL)");
      wire::check(r.exhausted(), "wal segment header has trailing bytes");
      saw_header = true;
    } else {
      contents.records.push_back(decode_record(payload, expected_segment));
    }
    pos += 4 + len + 4;
    contents.valid_bytes = pos;
  }
  wire::check(saw_header, "wal segment has no intact header frame");
  return contents;
}

WalContents load_wal(const std::string& dir, std::size_t num_shards, std::uint64_t fingerprint) {
  WalContents contents;
  contents.valid_bytes.resize(num_shards + 1, 0);
  for (std::size_t segment = 0; segment <= num_shards; ++segment) {
    SegmentContents seg =
        read_segment(dir + "/" + segment_file_name(segment), segment, fingerprint);
    contents.valid_bytes[segment] = seg.valid_bytes;
    for (Record& record : seg.records) {
      if (is_input(record.kind)) {
        contents.inputs.push_back(std::move(record));
      } else {
        const auto key = std::make_pair(record.shard, record.height);
        const auto [it, inserted] = contents.blocks.emplace(key, record.digest);
        // A recovered run legitimately re-logs blocks its pre-crash drain
        // already fingerprinted; only a DIFFERENT digest at one height is
        // corruption.
        wire::check(inserted || it->second == record.digest,
                    "wal block fingerprints disagree at one (shard, height)");
      }
    }
  }
  std::stable_sort(contents.inputs.begin(), contents.inputs.end(),
                   [](const Record& a, const Record& b) { return a.input_seq < b.input_seq; });
  for (std::size_t i = 0; i < contents.inputs.size(); ++i) {
    wire::check(contents.inputs[i].input_seq >= i, "wal input sequence has a duplicate");
    wire::check(contents.inputs[i].input_seq <= i, "wal input sequence has a gap");
  }
  contents.next_input_seq = contents.inputs.size();
  return contents;
}

WalWriter::WalWriter(PassKey, const Options& options, bool fresh,
                     std::span<const std::uint64_t> valid_bytes, std::uint64_t next_input_seq)
    : sync_(options.sync), next_input_seq_(next_input_seq) {
  DECLOUD_EXPECTS(options.num_shards >= 1);
  ::mkdir(options.dir.c_str(), 0777);  // EEXIST is fine; open() below reports real failures
  for (std::size_t segment = 0; segment <= options.num_shards; ++segment) {
    auto seg = std::make_unique<Segment>();
    seg->path = options.dir + "/" + segment_file_name(segment);
    const int flags = fresh ? (O_WRONLY | O_CREAT | O_TRUNC) : (O_WRONLY | O_CREAT);
    seg->fd = ::open(seg->path.c_str(), flags, 0644);
    if (seg->fd < 0) throw_errno("open failed for", seg->path);
    if (fresh) {
      std::vector<std::uint8_t> frame;
      append_frame(frame, encode_header(segment, options.fingerprint));
      write_all(seg->fd, frame, seg->path);
      if (sync_) (void)::fsync(seg->fd);
    } else {
      // Drop any torn tail so appended frames follow the last intact one.
      DECLOUD_EXPECTS_MSG(segment < valid_bytes.size(), "wal attach needs per-segment offsets");
      if (::ftruncate(seg->fd, static_cast<off_t>(valid_bytes[segment])) != 0) {
        throw_errno("ftruncate failed for", seg->path);
      }
      if (::lseek(seg->fd, 0, SEEK_END) < 0) throw_errno("lseek failed for", seg->path);
      if (sync_) (void)::fsync(seg->fd);
    }
    segments_.push_back(std::move(seg));
  }
  if (sync_) fsync_dir(options.dir);
}

std::unique_ptr<WalWriter> WalWriter::create(const Options& options) {
  return std::make_unique<WalWriter>(PassKey{}, options, /*fresh=*/true,
                                     std::span<const std::uint64_t>{}, /*next_input_seq=*/0);
}

std::unique_ptr<WalWriter> WalWriter::attach(const Options& options,
                                             std::span<const std::uint64_t> valid_bytes,
                                             std::uint64_t next_input_seq) {
  return std::make_unique<WalWriter>(PassKey{}, options, /*fresh=*/false, valid_bytes,
                                     next_input_seq);
}

WalWriter::~WalWriter() {
  for (auto& seg : segments_) {
    if (seg->fd >= 0) ::close(seg->fd);
  }
}

void WalWriter::write_frame(Segment& segment, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, payload);
  const std::lock_guard<dsched::mutex> lock(segment.mutex);
  write_all(segment.fd, frame, segment.path);
  if (sync_) (void)::fsync(segment.fd);
}

std::uint64_t WalWriter::append_bid(std::size_t segment, bool is_offer,
                                    std::span<const std::uint8_t> payload) {
  DECLOUD_EXPECTS(segment < segments_.size());
  Record record;
  record.kind = RecordKind::kBid;
  record.is_offer = is_offer;
  record.payload.assign(payload.begin(), payload.end());
  const std::lock_guard<dsched::mutex> lock(input_mutex_);
  record.input_seq = next_input_seq_++;
  write_frame(*segments_[segment], encode_record(record));
  return record.input_seq;
}

std::uint64_t WalWriter::append_flush() {
  Record record;
  record.kind = RecordKind::kFlush;
  const std::lock_guard<dsched::mutex> lock(input_mutex_);
  record.input_seq = next_input_seq_++;
  write_frame(*segments_[0], encode_record(record));
  return record.input_seq;
}

void WalWriter::append_block(std::size_t shard, std::uint64_t height,
                             const crypto::Digest& digest) {
  DECLOUD_EXPECTS(shard + 1 < segments_.size());
  Record record;
  record.kind = RecordKind::kBlockAppend;
  record.shard = shard;
  record.height = height;
  record.digest = digest;
  write_frame(*segments_[shard + 1], encode_record(record));
}

std::uint64_t WalWriter::next_input_seq() const {
  const std::lock_guard<dsched::mutex> lock(input_mutex_);
  return next_input_seq_;
}

}  // namespace decloud::wal
