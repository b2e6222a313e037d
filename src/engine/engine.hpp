// The sharded continuous market engine.
//
// One MarketEngine holds N independent regional markets (shards), each a
// full MarketOrchestrator behind a bounded ingest queue.  Producers stream
// bids in on any thread: `submit` routes by location (ShardRouter), pushes
// into the shard's queue, and returns an explicit admission result so
// callers experience admission control instead of unbounded growth.  An
// EpochScheduler (epoch_scheduler.hpp) then ticks the engine: each tick
// drains every shard's queue into that shard's market and runs one block
// round per non-idle shard, fanning the independent shard rounds out
// across a thread pool.
//
// Determinism contract: shards never share state, every shard market is
// seeded identically and fed in queue (FIFO) order, and aggregation
// (report()) walks shards in fixed order — so for a single-threaded
// producer the whole engine is byte-deterministic for a given
// (config, submission sequence), independent of the scheduler's thread
// count.  A 1-shard engine is observably identical to driving one
// MarketOrchestrator directly (enforced by tests/engine/).
#pragma once

#include <atomic>  // std::memory_order constants used with dsched::atomic
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <variant>
#include <vector>

#include "common/bounded_queue.hpp"
#include "dsched/sync.hpp"
#include "engine/report.hpp"
#include "engine/shard_router.hpp"
#include "fault/injector.hpp"
#include "journal/journal.hpp"
#include "ledger/market.hpp"
#include "obs/sink.hpp"

namespace decloud::wal {
class WalWriter;
}

namespace decloud::engine {

/// Deterministic retry-with-backoff for refused ingests.  Off by default
/// (max_attempts == 0): a rejection is final, as before.  When on, a
/// refused bid is parked in the shard's deferral buffer and resubmitted at
/// the epoch `2^(attempt-1)` ticks later, up to max_attempts times; what
/// still fails then is dropped and counted in
/// EngineReport::bids_retry_dropped.
struct IngestRetryPolicy {
  std::size_t max_attempts = 0;
};

struct EngineConfig {
  /// Routing (also fixes the shard count via router.num_shards).
  ShardRouterConfig router;
  /// Per-shard ingest queue bound (common/bounded_queue.hpp): a submit
  /// that finds the shard's queue full is refused for backpressure.
  std::size_t queue_capacity = 4096;
  /// Per-shard market parameters (consensus, retry budget, …).  Every
  /// shard gets an identical copy; `market.consensus.auction.threads`
  /// should usually stay 1 so parallelism lives across shards, not inside
  /// them.
  ledger::MarketConfig market;
  /// When true every shard owns a MetricsSink ("shard0", "shard1", …)
  /// threaded through its market/protocol/auction; exports come out of
  /// metrics_json()/trace_json().  Off by default: the hot path then pays
  /// one pointer test per hook (DESIGN.md §3e).
  bool observability = false;
  /// Optional wall clock for span timestamps (not owned; may outlive no
  /// engine call).  Null = logical-clock-only mode, whose trace export is
  /// byte-deterministic across thread counts.
  obs::Clock* clock = nullptr;
  /// Retry-with-backoff for refused ingests (see IngestRetryPolicy).
  IngestRetryPolicy retry;
  /// Deterministic fault schedule.  Non-empty: the engine owns a
  /// FaultInjector over (fault_plan, fault_seed) and threads it through
  /// every shard market/protocol plus its own ingest path.  Shards see
  /// independent slices via the FaultSite::shard coordinate.
  fault::FaultPlan fault_plan;
  std::uint64_t fault_seed = 1;
  /// Per-ring capacity of the market flight recorder (journal/journal.hpp).
  /// 0 (default) = no journal: every hook is one pointer test, mirroring
  /// the null-sink contract.  Non-zero: the engine owns a Journal with
  /// num_shards + 1 rings (control + one per shard) recording ingest
  /// verdicts, epoch closes, trades, blocks, faults, and residue.
  std::size_t journal_capacity = 0;
};

/// Producer-visible outcome of one submit(): admitted, deferred, or
/// rejected for backpressure.
struct EngineAdmission {
  enum class Reason : std::uint8_t {
    kNone,          ///< admitted into the shard's ingest queue
    kBackpressure,  ///< rejected: the shard's ingest queue is full
    kDeferred,      ///< refused now, parked for deterministic retry (the
                    ///< bid is still in flight, so it counts as admitted)
  };
  Reason reason = Reason::kNone;
  /// Target shard.
  std::size_t shard = 0;

  [[nodiscard]] bool admitted() const { return reason != Reason::kBackpressure; }
};

class MarketEngine {
 public:
  explicit MarketEngine(EngineConfig config);

  /// Thread-safe bid ingest (MPSC per shard: any number of producers; the
  /// scheduler is the single consumer).  Bids are validated here so a
  /// malformed bid faults the producer, not the epoch tick.
  EngineAdmission submit(const auction::Request& request);
  EngineAdmission submit(const auction::Offer& offer);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const ShardRouter& router() const { return router_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Bids awaiting a round anywhere: ingest queues plus shard markets.
  [[nodiscard]] std::size_t queued_bids() const;

  /// Runs one epoch for one shard: drains its ingest queue into the shard
  /// market (FIFO) and, if the market has anything pending, runs one block
  /// round at `now`.  Called by EpochScheduler, possibly concurrently for
  /// DIFFERENT shards; never call it concurrently for the same shard.
  void run_shard_epoch(std::size_t shard, Time now);

  /// Direct access to a shard's market (read-mostly: tests and the demo
  /// inspect chains/contracts through this).
  [[nodiscard]] const ledger::MarketOrchestrator& shard_market(std::size_t shard) const {
    return shards_[shard]->market;
  }

  /// Snapshot of all statistics, merged in fixed shard order.
  /// `epochs` on the report is filled by the EpochScheduler that drives
  /// this engine (the engine itself counts per-shard rounds only).
  [[nodiscard]] EngineReport report() const;

  /// The shard's sink (null unless config.observability).  Read it only
  /// between epochs: during a tick the shard's round thread owns it.
  [[nodiscard]] const obs::MetricsSink* shard_sink(std::size_t shard) const {
    return shards_[shard]->sink.get();
  }

  /// Merged observability exports.  Merge order is fixed — a synthetic
  /// "engine" sink (ingest counters + router annotation), then
  /// `extra_sinks` in the order given (null entries skipped; the scheduler
  /// and streaming layers pass theirs here), then every shard sink in
  /// shard order — so the bytes do not depend on the scheduler's thread
  /// count (logical-clock mode; a wall clock makes trace timestamps vary).
  /// Call between epochs, never during a tick.
  [[nodiscard]] std::string metrics_json(
      std::span<const obs::MetricsSink* const> extra_sinks = {}) const;
  [[nodiscard]] std::string metrics_prometheus(
      std::span<const obs::MetricsSink* const> extra_sinks = {}) const;
  [[nodiscard]] std::string trace_json(
      std::span<const obs::MetricsSink* const> extra_sinks = {}) const;

  /// The flight recorder (null unless config.journal_capacity > 0).
  /// Ring 0 is the control ring; ring s + 1 records shard s.  Encode or
  /// export it only between epochs, like the sinks.
  [[nodiscard]] journal::Journal* journal() { return journal_.get(); }
  [[nodiscard]] const journal::Journal* journal() const { return journal_.get(); }

  /// Attaches the write-ahead log (not owned, may be null).  Every submit
  /// then appends its bid to the WAL BEFORE applying it (log-before-apply)
  /// and shard rounds fingerprint their chain appends.  Durable mode
  /// requires the engine's single-producer discipline: input_seq order
  /// must equal apply order (DESIGN.md §3k).
  void set_wal_writer(wal::WalWriter* wal) { wal_ = wal; }

  /// Attaches the crash-chaos injector (not owned, may be null) — a
  /// SEPARATE injector from config.fault_plan's, driving only
  /// fault::kCrashAtSite sites (see fault/crash.hpp for why).
  void set_crash_injector(const fault::FaultInjector* injector) { crash_ = injector; }

 private:
  struct IngestItem {
    std::variant<auction::Request, auction::Offer> bid;
  };

  /// A refused ingest parked for retry.  `attempt` counts refusals so far;
  /// the item re-enters the shard market at `due_epoch`.
  struct Deferred {
    IngestItem item;
    std::size_t attempt = 1;
    std::uint64_t due_epoch = 0;
  };

  struct Shard {
    explicit Shard(const EngineConfig& config)
        : queue(config.queue_capacity), market(config.market) {}

    BoundedQueue<IngestItem> queue;
    ledger::MarketOrchestrator market;
    /// Written only by the shard's round thread (same discipline as
    /// `market`); null unless EngineConfig::observability.
    std::unique_ptr<obs::MetricsSink> sink;
    /// The shard's sink, journal ring s + 1 and fault slice s — attached
    /// to `market` and used by the ingest and retry paths alike.
    ledger::Hooks hooks;
    // Producer-side counters (atomic: submit runs on producer threads).
    dsched::atomic<std::size_t> rejected_backpressure{0};
    dsched::atomic<std::size_t> spilled{0};
    /// Per-shard ingest sequence: the FaultSite::index of submit-side
    /// fault decisions (atomic so producers on any thread get distinct
    /// sites).
    dsched::atomic<std::uint64_t> ingest_seq{0};
    /// Epochs started for this shard; read by producers to stamp deferral
    /// due-epochs, written by the (single) consumer at each tick.
    dsched::atomic<std::uint64_t> epochs_started{0};
    /// Deferral buffer (guarded: producers park, the consumer flushes).
    mutable dsched::mutex deferred_mutex;
    std::vector<Deferred> deferred;
    dsched::atomic<std::size_t> retries_scheduled{0};
    // Consumer-side counters (only the scheduler's shard thread touches
    // them).
    std::size_t epochs_run = 0;
    std::size_t retries_succeeded = 0;
    std::size_t retries_dropped = 0;
    std::uint64_t retry_seq = 0;
  };

  template <typename Bid>
  EngineAdmission submit_bid(const Bid& bid);

  /// Parks a refused ingest in the shard's deferral buffer.
  void defer(Shard& shard, IngestItem item, std::size_t attempt);
  /// Backoff in epochs before retry `attempt` re-enters the market.
  [[nodiscard]] static std::uint64_t retry_backoff(std::size_t attempt);

  /// Builds the synthetic "engine" sink (producer-side atomics + router
  /// annotation) the exports prepend to the per-shard sinks.
  [[nodiscard]] obs::MetricsSink engine_summary_sink() const;
  [[nodiscard]] std::vector<const obs::MetricsSink*> export_order(
      const obs::MetricsSink* engine_sink,
      std::span<const obs::MetricsSink* const> extra_sinks) const;

  EngineConfig config_;
  ShardRouter router_;
  /// Owned fault injector (null when config.fault_plan is empty).  Const
  /// and stateless, so sharing it across shards and threads is free.
  std::unique_ptr<const fault::FaultInjector> injector_;
  /// Owned flight recorder (null when config.journal_capacity == 0).
  std::unique_ptr<journal::Journal> journal_;
  // unique_ptr: Shard is neither movable nor copyable (queue mutex,
  // orchestrator), and the vector is sized once in the constructor.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Durable-market attachments (both null outside durable mode).
  wal::WalWriter* wal_ = nullptr;
  const fault::FaultInjector* crash_ = nullptr;
};

}  // namespace decloud::engine
