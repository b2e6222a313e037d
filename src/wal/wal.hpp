// Per-shard write-ahead log ("DCW1") for the durable market.
//
// Layout: one directory holds `control.dcw` (segment 0: stream flushes)
// plus `shard<N>.dcw` (segment N+1: bids routed to shard N and that
// shard's block-append fingerprints).  Every record is CRC-framed:
//
//   u32 payload_len (LE) | payload | u32 crc32(payload)
//
// and frame 0 of every segment is a header: "DCW1" magic, u8 version,
// varint segment index, u64 config fingerprint.  The fingerprint hashes
// the run configuration, so replaying a WAL under a different config
// fails loudly instead of diverging quietly.
//
// Input records (bid/flush) carry a dense global `input_seq`
// assigned under the writer's input mutex; the log-before-apply ordering
// plus the engine's single-producer discipline make input_seq order equal
// apply order, which is all replay needs.  Block records are written by
// shard round threads to their own segment without the global mutex.
//
// Reading uses valid-prefix-wins semantics per segment: a torn tail (a
// frame cut short or failing its CRC) truncates the segment at the last
// good frame.  A frame whose CRC MATCHES but whose payload does not parse
// is real corruption and throws journal::wire::decode_error — as does a
// gap or duplicate in the merged input sequence, or two block records
// disagreeing about the digest at one (shard, height).  See DESIGN.md §3k.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsched/sync.hpp"
#include "wal/record.hpp"

namespace decloud::wal {

inline constexpr std::uint8_t kWalVersion = 1;

/// File name of a segment inside the WAL directory: "control.dcw" for
/// segment 0, "shard<N>.dcw" for segment N+1.
[[nodiscard]] std::string segment_file_name(std::size_t segment);

/// One segment's decoded records plus the byte offset of the end of its
/// last intact frame (what a re-attaching writer truncates to).
struct SegmentContents {
  std::vector<Record> records;
  std::uint64_t valid_bytes = 0;
};

/// Decodes one segment file.  Throws journal::wire::decode_error when the
/// header is malformed, the segment index or fingerprint mismatch, or a
/// CRC-valid frame fails to parse; a torn tail merely truncates.
[[nodiscard]] SegmentContents read_segment(const std::string& path, std::size_t expected_segment,
                                           std::uint64_t fingerprint);

/// A whole WAL directory, merged for replay.
struct WalContents {
  /// Input records from every segment, sorted by input_seq (dense from 0).
  std::vector<Record> inputs;
  /// Block fingerprints: (shard, height) -> chain tip digest.
  std::map<std::pair<std::uint64_t, std::uint64_t>, crypto::Digest> blocks;
  /// Per-segment valid prefix length, indexed by segment (0..num_shards).
  std::vector<std::uint64_t> valid_bytes;
  /// One past the highest input_seq seen (0 for an empty WAL).
  std::uint64_t next_input_seq = 0;
};

/// Reads and merges all `1 + num_shards` segments of `dir`.  Throws
/// journal::wire::decode_error on any per-segment error, a missing
/// segment file, or a gap/duplicate in the merged input sequence.
[[nodiscard]] WalContents load_wal(const std::string& dir, std::size_t num_shards,
                                   std::uint64_t fingerprint);

/// Append-side of the WAL.  Thread safety matches the engine's contract:
/// input appends (bid/flush) serialize on one internal mutex
/// (the caller is the single producer thread anyway; the mutex makes the
/// seq assignment safe even if that ever changes), block appends take
/// only their segment's mutex and may run concurrently from shard
/// threads.
class WalWriter {
 public:
  struct Options {
    std::string dir;
    std::size_t num_shards = 1;
    std::uint64_t fingerprint = 0;
    /// fsync after every append.  Keeps the log durable across power
    /// loss; process-kill chaos survives either way (the page cache
    /// outlives the process).  Off is the bench's no-fsync baseline.
    bool sync = true;
  };

  /// Creates a fresh WAL: truncates/creates every segment and writes the
  /// header frames.  Throws std::runtime_error on filesystem errors.
  [[nodiscard]] static std::unique_ptr<WalWriter> create(const Options& options);

  /// Re-attaches to an existing WAL after recovery: truncates each
  /// segment to `valid_bytes` (dropping any torn tail so the resumed
  /// byte stream stays parseable) and appends; input sequence numbers
  /// continue at `next_input_seq`.
  [[nodiscard]] static std::unique_ptr<WalWriter> attach(
      const Options& options, std::span<const std::uint64_t> valid_bytes,
      std::uint64_t next_input_seq);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Constructor is public only so make_unique can reach it; the PassKey
  /// keeps construction confined to create()/attach(), which name the
  /// fresh-vs-resume intent.
  class PassKey {
    friend class WalWriter;
    PassKey() = default;
  };
  WalWriter(PassKey, const Options& options, bool fresh,
            std::span<const std::uint64_t> valid_bytes, std::uint64_t next_input_seq);

  /// Appends one bid to `segment` (the engine passes shard+1; every bid
  /// routes to a shard); `payload` is the ledger codec encoding.  Returns
  /// the record's input_seq.
  std::uint64_t append_bid(std::size_t segment, bool is_offer,
                           std::span<const std::uint8_t> payload);
  /// Appends a stream flush (control segment).
  std::uint64_t append_flush();
  /// Appends a block fingerprint to shard `shard`'s segment.  No
  /// input_seq; safe to call from that shard's round thread.
  void append_block(std::size_t shard, std::uint64_t height, const crypto::Digest& digest);

  /// The input_seq the next input append will receive.
  [[nodiscard]] std::uint64_t next_input_seq() const;
  [[nodiscard]] std::size_t num_shards() const { return segments_.size() - 1; }

 private:
  struct Segment {
    std::string path;
    int fd = -1;
    dsched::mutex mutex;
  };

  void write_frame(Segment& segment, std::span<const std::uint8_t> payload);

  bool sync_;
  std::vector<std::unique_ptr<Segment>> segments_;
  mutable dsched::mutex input_mutex_;
  std::uint64_t next_input_seq_ = 0;
};

}  // namespace decloud::wal
