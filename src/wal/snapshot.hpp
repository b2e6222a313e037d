// Deterministic engine snapshots ("DCS1") for the durable market.
//
// A snapshot is an opaque payload (composed by wal/durable) captured at a
// quiescent point — after a tick, with every shard queue and mempool
// empty — and written atomically: temp file, fsync, rename to
// `snapshot-<epochs>.dcs`, fsync the directory.  A crash between the temp
// fsync and the rename (CrashSite::kMidSnapshot) leaves only a stray
// `.tmp` file, which find_latest_snapshot ignores; recovery then uses the
// previous snapshot (or none) and a longer WAL tail.  Snapshots are an
// optimization — replay correctness never depends on one existing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/crash.hpp"

namespace decloud::wal {

/// Bumped whenever the payload layout changes: the version byte lies
/// outside the payload CRC, so an older file is refused here rather than
/// misparsed.
inline constexpr std::uint8_t kSnapshotVersion = 3;

/// A decoded snapshot file.
struct SnapshotFile {
  std::uint64_t epochs = 0;  ///< scheduler epochs at capture time
  std::vector<std::uint8_t> payload;
};

/// Writes `snapshot-<epochs>.dcs` into `dir` atomically.  `crash` is the
/// --crash-plan injector (may be null); CrashSite::kMidSnapshot fires
/// between the temp-file fsync and the rename, with index = epochs.
void write_snapshot(const std::string& dir, std::uint64_t epochs,
                    std::span<const std::uint8_t> payload, std::uint64_t fingerprint,
                    const fault::FaultInjector* crash);

/// Path of the highest-epoch `snapshot-<N>.dcs` in `dir`, or nullopt when
/// none exists.  Stray temp files and unrelated names are ignored.
[[nodiscard]] std::optional<std::string> find_latest_snapshot(const std::string& dir);

/// Reads and validates one snapshot file.  Throws
/// journal::wire::decode_error on truncation, bad magic/CRC, or a config
/// fingerprint mismatch.
[[nodiscard]] SnapshotFile read_snapshot(const std::string& path, std::uint64_t fingerprint);

}  // namespace decloud::wal
