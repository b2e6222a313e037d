// Epoch-less continuous-market front end (DESIGN.md §3h).
//
// A StreamingMarket wraps a MarketEngine + EpochScheduler behind a
// continuous ingest stream: producers call submit() whenever a bid
// arrives, and the market decides FOR ITSELF when to clear, by closing a
// "micro-epoch" — one scheduler tick over every shard — whenever its one
// deterministic trigger fires: `triggers.bids` submissions have arrived
// since the last close.  Periodic batch clearing is exactly this trigger;
// flush() and drain() are the only other closes, and both are explicit
// calls.
//
// Wall time NEVER closes a micro-epoch: two runs that see the same
// submission sequence close at exactly the same points no matter how fast
// the host is, which is what makes the streaming EngineReport
// byte-reproducible (and declint's wallclock-outside-obs rule enforceable
// over this subsystem).  Simulated round timestamps advance by
// epoch_interval per close, exactly like the scheduler's run loop — so a
// stream whose trigger fires every N bids produces a byte-identical
// EngineReport to a submit-N-then-tick loop over MarketEngine +
// EpochScheduler (the reference oracle of
// tests/stream/stream_determinism_test).
//
// Unmatched bids are residue: they stay queued inside the shard markets
// and re-enter the next micro-epoch's round automatically, with age
// bounded by MarketConfig::max_resubmissions (EngineReport counts them in
// total.bids_carried).
//
// Threading: submit()/flush()/drain() must come from ONE thread (the
// stream owner); the scheduler fans shard work out underneath, and the
// report is byte-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"

namespace decloud::stream {

using engine::EngineAdmission;
using engine::EngineReport;

/// Deterministic micro-epoch close trigger.  Zero means only
/// flush()/drain() ever close (a pure manual market, useful in tests).
struct MicroEpochTriggers {
  /// Close after this many submissions since the last close (0 = off).
  std::size_t bids = 0;
};

struct StreamConfig {
  engine::EngineConfig engine;
  MicroEpochTriggers triggers;
  /// Scheduler worker threads for the shard fan-out (0 = hardware).
  std::size_t threads = 1;
  /// Simulated seconds between micro-epochs: close n (from 0) is stamped
  /// n·epoch_interval — the scheduler's run-loop timestamp sequence.
  Seconds epoch_interval = 600;
  /// Ticks drain() may spend clearing residue after the stream ends.
  std::size_t drain_epochs = 32;
};

/// Producer-visible outcome of one streaming submit.
struct StreamAdmission {
  /// The engine's admission verdict (routing, backpressure, deferral).
  EngineAdmission engine;
  /// True when this submission closed a micro-epoch.
  bool closed_micro_epoch = false;
};

class StreamingMarket {
 public:
  explicit StreamingMarket(StreamConfig config);

  /// Ingests one bid and closes a micro-epoch if the trigger fired.  Every
  /// submission — admitted, rejected, or deferred — counts toward the
  /// bid-count trigger: the trigger must depend only on the submission
  /// SEQUENCE, not on admission outcomes, or a fault plan rejecting an
  /// ingest would shift every later close and the alignment with the
  /// reference batch loop (which also counts rejected submissions against
  /// its batch boundary) would break.
  StreamAdmission submit(const auction::Request& request);
  StreamAdmission submit(const auction::Offer& offer);

  /// Closes a final micro-epoch over any submissions still pending since
  /// the last close; a no-op (returns false) when none are — an empty
  /// close would tick the scheduler and shift every later timestamp.
  bool flush();

  /// Runs up to config.drain_epochs extra micro-epochs clearing carried
  /// residue (the drain tail).  Returns epochs run.
  std::size_t drain();

  /// Micro-epochs closed so far (== scheduler ticks; every close is one
  /// tick, and nothing else ticks the scheduler).
  [[nodiscard]] std::size_t micro_epochs() const { return scheduler_.epochs(); }
  [[nodiscard]] std::size_t submitted() const { return submitted_; }

  [[nodiscard]] engine::MarketEngine& market_engine() { return engine_; }
  [[nodiscard]] const engine::MarketEngine& market_engine() const { return engine_; }
  [[nodiscard]] engine::EpochScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }

  /// The scheduler's report (engine totals + epoch/micro-epoch counters).
  [[nodiscard]] EngineReport report() const { return scheduler_.report(); }

  /// Observability exports with the stream's own sink ("stream":
  /// micro_epoch spans + stream.* counters) merged after the scheduler's,
  /// before the shard sinks.  Null sinks are skipped, so without
  /// observability these equal the engine's own exports.
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string metrics_prometheus() const;
  [[nodiscard]] std::string trace_json() const;

  /// The stream-level sink (null without observability) — exposed so a
  /// driver can compose its own extra-sink merge order (e.g. appending
  /// the journal telemetry sink after the stream's).
  [[nodiscard]] const obs::MetricsSink* sink() const { return sink_.get(); }

  /// Attaches the write-ahead log (not owned, may be null) for the
  /// stream's OWN input — flushes.  Bids are logged
  /// by the engine (attach there too); micro-epoch closes are NOT logged:
  /// they re-fire deterministically when replay re-feeds the logged
  /// inputs (DESIGN.md §3k).
  void set_wal_writer(wal::WalWriter* wal) { wal_ = wal; }

 private:
  /// Close attribution is the journal's own taxonomy so the kEpochClose
  /// events a stream run journals are byte-comparable with the reference
  /// batch loop's (which attributes its ticks the same way).
  using CloseReason = journal::CloseReason;

  template <typename Bid>
  StreamAdmission submit_bid(const Bid& bid);
  /// Closes one micro-epoch NOW (one scheduler tick at the next simulated
  /// timestamp) and attributes it to `reason` in the stream counters.
  void close_micro_epoch(CloseReason reason);
  /// Fires at most one close for the current trigger state.
  [[nodiscard]] bool maybe_close();

  StreamConfig config_;
  engine::MarketEngine engine_;
  engine::EpochScheduler scheduler_;
  /// Stream-level sink (null unless config.engine.observability); owned
  /// here, written only by the stream owner thread.
  std::unique_ptr<obs::MetricsSink> sink_;
  std::size_t submitted_ = 0;         ///< submissions seen (any admission outcome)
  std::size_t closed_submitted_ = 0;  ///< submitted_ at the last close
  /// Durable-mode WAL attachment (null otherwise); see set_wal_writer.
  wal::WalWriter* wal_ = nullptr;
};

}  // namespace decloud::stream
