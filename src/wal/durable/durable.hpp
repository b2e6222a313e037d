// The durable attachment of the trace drive loop (DESIGN.md §3k).
//
// stream::drive_trace_stream is the one trace drive loop; given
// DurableOptions it opens a DurableLog, which owns everything durable
// about the run.  The low-level framing and segments live one directory
// up (wal/wal.hpp); this layer knows the MARKET — it replays a WAL
// through the market's normal submit/flush paths, so the loop continues
// from exactly where a dead process stopped.  The byte-identity
// contract: a crashed-and-recovered run's EngineReport, journal bytes and
// metrics exports equal an uninterrupted run's at any thread count, chaos
// included.
//
// What recovery does, in order:
//   1. load_wal: every segment's valid prefix, inputs merged by input_seq;
//   2. replay every logged input into the fresh market through the
//      normal code paths, with the WAL writer detached (replay must not
//      re-log) and no crash injector (a recovered run must get past the
//      site that killed its predecessor).  Micro-epoch closes are not
//      logged: they re-fire when the replayed inputs cross the triggers.
//      The log must be a drive's — a prefix of the trace's bids in trace
//      order, byte for byte, then at most one flush — or recovery throws
//      decode_error;
//   3. cross-check recovered chain tips against the WAL's block
//      fingerprints;
//   4. re-attach the writer in append mode (truncating torn tails) and
//      hand the loop its resume position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "engine/driver.hpp"
#include "fault/injector.hpp"
#include "stream/streaming_market.hpp"
#include "wal/wal.hpp"

namespace decloud::wal {

/// Durable-mode parameters of a trace drive.
struct DurableOptions {
  std::string wal_dir;
  /// Recover from wal_dir (whole-WAL replay) instead of starting a fresh
  /// WAL.
  bool recover = false;
  /// fsync every WAL append (WalWriter::Options::sync).
  bool sync = true;
  /// Hash of the run configuration (config_fingerprint); checked against
  /// every segment header on recovery.
  std::uint64_t fingerprint = 0;
  /// The --crash-plan injector (not owned, may be null).  Attached to the
  /// engine only for the LIVE portion of the run, never during replay.
  const fault::FaultInjector* crash = nullptr;
};

/// How far a trace drive has got: rebuilt by recovery, advanced by the
/// drive loop.
struct DriveProgress {
  std::size_t done = 0;  ///< trace bids submitted so far
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  bool flushed = false;  ///< the end-of-trace flush has run (and is logged)

  void count(bool was_admitted) {
    if (was_admitted) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
};

/// FNV-1a (64-bit) over a canonical configuration string.  The driver
/// builds the string from every flag that shapes results (workload,
/// shards, seeds, fault plan, triggers — NOT thread count, which may
/// legitimately differ between the crashed and the recovering run, and
/// NOT the crash plan, which only the crashed run carries).
[[nodiscard]] std::uint64_t config_fingerprint(std::string_view canonical);

/// A WAL attached to one StreamingMarket for one drive of a trace.
class DurableLog {
 public:
  /// Opens the log of a drive of `trace` into the FRESH `market`:
  /// creates a new WAL, or (opts.recover) recovers the one in
  /// opts.wal_dir as described above, leaving the recovered state in
  /// `market` and the resume position in resume().  The writer and the
  /// crash injector stay attached to the market until destruction.
  DurableLog(stream::StreamingMarket& market, const engine::TraceStream& trace,
             const DurableOptions& opts);
  ~DurableLog();
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Where the drive resumes: all zero for a fresh log.
  [[nodiscard]] const DriveProgress& resume() const { return resume_; }

 private:
  stream::StreamingMarket& market_;
  DriveProgress resume_;
  std::unique_ptr<WalWriter> writer_;
};

}  // namespace decloud::wal
