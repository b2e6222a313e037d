// The market flight recorder (DESIGN.md §3j).
//
// A Journal is a deterministic, append-only record of what the market DID
// — not how fast it ran (that is src/obs/): every ingest verdict, every
// micro-epoch close and its trigger, every trade with its Eq. 20 clearing
// price, every block accepted/rejected/re-mined, every fault that fired
// and every reputation penalty it cost, and the residue the rounds carried
// or abandoned.  PR 4's metrics answer "where did the time go"; the
// journal answers "why did shard 3 leave 212 bids unmatched in epoch 17".
//
// Determinism contract (the whole point):
//
//   * Events are stamped with LOGICAL clocks only — a per-ring sequence
//     number plus the emitting layer's own epoch counter (scheduler epoch
//     for the control ring, shard block height for shard rings).  Never
//     wall time, so two runs over the same submission sequence journal
//     byte-identically no matter how fast the host is.
//   * Events are buffered per shard in bounded rings: ring 0 is the
//     control ring (micro-epoch closes — written by the producer/tick
//     thread), ring s+1 belongs to shard s (written by whichever pool
//     worker runs that shard's round).  A shard's events are ordered by
//     its own deterministic execution, and rings never interleave in the
//     encoding, so the scheduler's thread count cannot reorder anything
//     observable.
//   * encode() walks the rings in fixed index order.  Journal bytes are
//     therefore identical at any thread count, for the batch reference
//     loop vs the aligned-trigger drive loop, chaos included — the
//     property the CI byte-diff jobs pin (tests/journal/).
//
// Rings are bounded (drop-oldest) so a soak run cannot grow without
// limit; drops are counted per ring and preserved in the encoding, which
// keeps a truncated journal honestly truncated rather than silently
// complete.  This is the append-only event stream ROADMAP item 5's WAL
// will replay; tools/journal_query is its query/diff front end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsched/sync.hpp"
#include "obs/sink.hpp"

namespace decloud::journal {

/// What happened.  Values are the wire encoding — append new kinds at the
/// end, never renumber (journals byte-diff across runs).
enum class EventKind : std::uint8_t {
  kIngestAdmitted = 0,   ///< submit accepted by the shard queue (c: reserved, 0)
  kIngestRejected = 1,   ///< submit refused (c: RejectCause)
  kIngestDeferred = 2,   ///< submit parked for deterministic retry
  kRetryAdmitted = 3,    ///< deferred bid re-entered the shard market
  kRetryDropped = 4,     ///< deferred bid exhausted its attempt budget
  kEpochClose = 5,       ///< one scheduler tick (a: CloseReason, b: submissions)
  kTradeStruck = 6,      ///< one accepted match (x: payment, y: Eq. 20 price)
  kTradeReduced = 7,     ///< trade reduction dropped tentative matches
  kTradeDenied = 8,      ///< client denied a proposed agreement
  kBlockMined = 9,       ///< block accepted (x: round welfare)
  kBlockRejected = 10,   ///< quorum refused (or undecodable) block
  kBlockRemined = 11,    ///< bounded re-mine attempt started
  kFaultFired = 12,      ///< an injected fault engaged (a: FaultKind)
  kReputationPenalty = 13,  ///< contract debited a participant (b: PenaltyKind)
  kResidueCarried = 14,  ///< bids re-queued into a later round (b: CarryCause)
  kResidueAbandoned = 15,  ///< retry budgets ran out (a: requests, b: offers)
};

inline constexpr std::size_t kNumEventKinds = 16;

/// Why a micro-epoch closed — shared by the streaming trigger and the
/// batch reference loop's tick attribution, so aligned runs journal
/// identically
/// (stream/streaming_market.hpp documents the mapping).  Wire value 1 is
/// reserved for the retired logical-clock watermark close.
enum class CloseReason : std::uint8_t { kBidCount = 0, kFlush = 2, kDrain = 3 };

/// Operand `c` of kIngestRejected.  Wire value 1 is reserved (it was the
/// unroutable rejection; every bid now routes to a shard).
enum class RejectCause : std::uint8_t { kBackpressure = 0 };

/// Operand `b` of kReputationPenalty.
enum class PenaltyKind : std::uint8_t { kWithhold = 0, kProducer = 1, kDeny = 2 };

/// Operand `b` of kResidueCarried.
enum class CarryCause : std::uint8_t { kUnmatched = 0, kBlockRejected = 1, kDenialRefund = 2 };

/// Canonical lowercase name ("trade_struck", …) used by the JSONL export
/// and journal_query filters.
[[nodiscard]] const char* kind_name(EventKind kind);
/// Doubles carried by the kind (kTradeStruck: 2, kBlockMined: 1, else 0).
[[nodiscard]] std::size_t kind_doubles(EventKind kind);

/// One journal entry.  `seq` is the ring's logical clock (assigned by
/// append, dense per ring); `epoch` is the emitting layer's epoch counter.
/// a/b/c are kind-dependent integer operands, x/y kind-dependent doubles
/// (see EventKind comments; unused operands are zero).
struct Event {
  EventKind kind = EventKind::kIngestAdmitted;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  double x = 0.0;
  double y = 0.0;
};

class Journal {
 public:
  /// Ring 0: control events (epoch closes).
  static constexpr std::size_t kControlRing = 0;

  /// `num_rings` bounded rings of `capacity` events each.  An engine uses
  /// num_shards + 1 (control + one per shard).
  Journal(std::size_t num_rings, std::size_t capacity);

  /// Appends one event to `ring`, stamping it with the ring's next
  /// sequence number.  When the ring is full the OLDEST event is dropped
  /// and counted — the journal tail is always the most recent history.
  /// Internally synchronized per ring (dsched::mutex), but per-ring byte
  /// determinism still requires the caller discipline the engine already
  /// imposes: one writer per shard ring during a tick, the producer/tick
  /// thread for the control ring.
  void append(std::size_t ring, Event event);

  [[nodiscard]] std::size_t num_rings() const { return rings_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size(std::size_t ring) const;
  [[nodiscard]] std::uint64_t dropped(std::size_t ring) const;
  /// Snapshot copy of one ring, oldest first, seq stamps filled in.
  [[nodiscard]] std::vector<Event> events(std::size_t ring) const;
  /// Total events currently buffered across all rings.
  [[nodiscard]] std::size_t total_events() const;

  /// Compact binary encoding: "DCJ1" magic, version, capacity, then every
  /// ring in FIXED index order (dropped count, first seq, events as
  /// varint-packed operands + bit-cast doubles).  Byte-identical across
  /// thread counts — the string the determinism CI jobs cmp(1).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Inverse of encode(); throws journal::wire::decode_error on ANY
  /// malformed buffer — bad magic, truncation (even mid-varint), unknown
  /// kind, impossible counts, trailing bytes — so a corrupt journal file
  /// fails loudly in journal_query instead of misparsing into silent
  /// partial state.
  [[nodiscard]] static Journal decode(std::span<const std::uint8_t> bytes);


  /// One JSON object per line: a ring_header line per ring (dropped /
  /// first_seq / events) followed by its events, rings in fixed order,
  /// doubles printed %.17g.  The grep-able face of the binary format.
  [[nodiscard]] std::string export_jsonl() const;

 private:
  /// Bounded drop-oldest ring.  Not movable (mutex), hence unique_ptr
  /// storage in the journal.
  struct Ring {
    mutable dsched::mutex mutex;
    std::vector<Event> buf;      ///< circular, capacity_ slots
    std::size_t head = 0;        ///< index of the oldest event
    std::size_t count = 0;
    std::uint64_t next_seq = 0;  ///< seq the next append receives
    std::uint64_t dropped = 0;
  };

  std::size_t capacity_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Per-epoch economic telemetry derived FROM the event stream: welfare,
/// allocation rate, clearing-price dispersion, per-shard residue and
/// liquidity-fragmentation counters (ROADMAP item 3's missing signal).
/// Returns a "journal" MetricsSink for the existing merge order
/// (MarketEngine::export_order extra sinks) — the journal is the source
/// of truth and the metrics are a pure function of its events, so the
/// exported bytes inherit the journal's determinism.  It holds only what
/// the journal alone can say: a fact another layer counts with the
/// journal off gets no twin here (DESIGN.md §3e counter catalogue).
[[nodiscard]] obs::MetricsSink telemetry_sink(const Journal& journal);

}  // namespace decloud::journal
