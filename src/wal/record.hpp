// WAL record vocabulary (DESIGN.md §3k).
//
// The write-ahead log records the engine's externally-visible INPUTS, not
// its outputs: recovery replays the inputs through the normal code paths,
// and the engine's determinism contract (byte-identical results for a
// given submission sequence at any thread count) does the rest.  Two
// record kinds are inputs and carry a dense global `input_seq` assigned at
// append time — replay merges every segment's records by that sequence,
// and a gap is a structured decode error, never a silent skip.  The third
// kind, kBlockAppend, is an OUTPUT fingerprint (shard chain grew to
// `height` with tip `digest`): replay ignores it for ordering and uses it
// only as an integrity cross-check against the re-executed rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace decloud::wal {

/// Values are the wire encoding — append new kinds, never renumber.
enum class RecordKind : std::uint8_t {
  kBid = 0,          ///< one submitted bid (payload = ledger codec bytes)
  kFlush = 3,        ///< StreamingMarket::flush()
  kBlockAppend = 4,  ///< shard chain append fingerprint (no input_seq)
};

inline constexpr std::size_t kNumRecordKinds = 5;
/// Wire value 1 is reserved for the retired scheduler-tick record.  Closes
/// are not inputs (replay re-fires them from the logged bids), so a frame
/// carrying it is refused as corruption.
inline constexpr std::uint8_t kRetiredTickKind = 1;
/// Wire value 2 is reserved for the retired stream clock-advance record
/// (bids are the only close trigger now), refused the same way.
inline constexpr std::uint8_t kRetiredClockAdvanceKind = 2;

/// True for the kinds replay applies in input_seq order.
[[nodiscard]] constexpr bool is_input(RecordKind kind) {
  return kind != RecordKind::kBlockAppend;
}

/// One decoded WAL record.  Field validity is kind-dependent (see the
/// EventKind-style comments above); unused fields are zero.
struct Record {
  RecordKind kind = RecordKind::kBid;
  std::uint64_t input_seq = 0;        ///< inputs only: global dense sequence
  std::uint64_t segment = 0;          ///< segment the record was read from
  bool is_offer = false;              ///< kBid
  std::vector<std::uint8_t> payload;  ///< kBid: ledger::encode_request/offer bytes
  std::uint64_t shard = 0;            ///< kBlockAppend
  std::uint64_t height = 0;           ///< kBlockAppend
  crypto::Digest digest{};            ///< kBlockAppend: chain tip hash
};

}  // namespace decloud::wal
