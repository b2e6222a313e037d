// Tick-driven execution of a MarketEngine's shard rounds.
//
// Each tick is one "epoch": every shard drains its ingest queue and runs
// at most one block round.  Shards are independent markets, so the
// scheduler fans them out across a common/thread_pool with no cross-shard
// locking; the per-shard work is serialized by construction (one tick at
// a time, one chunk per shard).  Because shard rounds are individually
// deterministic and aggregation is ordered, the engine's results do not
// depend on the scheduler's thread count — only wall-clock time does.
//
// The pool's nested-use contract (thread_pool.hpp) matters here: a shard
// round may itself fan out (AuctionConfig::threads), and that inner
// parallelism must not deadlock against the outer shard fan-out.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>

#include "common/thread_pool.hpp"
#include "engine/engine.hpp"

namespace decloud::engine {

class EpochScheduler {
 public:
  /// `threads` workers drive the shard fan-out; 0 = one per hardware
  /// thread, 1 = fully serial (no pool spun up).
  EpochScheduler(MarketEngine& engine, std::size_t threads);

  /// Runs one epoch at simulated time `now` across all shards.  Bare
  /// ticks (the drain loop, tests) journal as kDrain closes with zero
  /// attributed submissions.
  void tick(Time now) { tick(now, journal::CloseReason::kDrain, 0); }

  /// Same, attributing the close: `reason` is why this epoch closed and
  /// `submissions` how many bids arrived since the previous close — the
  /// StreamingMarket's micro-epoch closes journal their trigger this way.
  void tick(Time now, journal::CloseReason reason, std::uint64_t submissions);

  /// Ticks until the engine is idle (no queued bids anywhere) or
  /// `max_epochs` elapsed; returns the number of epochs run.
  std::size_t run(std::size_t max_epochs, Time start_time = 0, Seconds epoch_interval = 600);

  [[nodiscard]] std::size_t epochs() const { return epochs_; }
  [[nodiscard]] std::size_t threads() const {
    return pool_ ? pool_->worker_count() : 1;
  }

  /// The engine's report with the scheduler's epoch count filled in.
  [[nodiscard]] EngineReport report() const;

  /// Observability exports with the scheduler's own sink ("scheduler":
  /// one "epoch" span per tick) merged in — null when the engine runs
  /// without observability, in which case these equal the engine's own.
  [[nodiscard]] const obs::MetricsSink* sink() const { return sink_.get(); }
  [[nodiscard]] obs::MetricsSink* sink() { return sink_.get(); }
  [[nodiscard]] std::string metrics_json() const { return engine_.metrics_json(extras()); }
  [[nodiscard]] std::string metrics_prometheus() const {
    return engine_.metrics_prometheus(extras());
  }
  [[nodiscard]] std::string trace_json() const { return engine_.trace_json(extras()); }

 private:
  MarketEngine& engine_;
  std::optional<ThreadPool> pool_;  // absent on the serial path
  std::size_t epochs_ = 0;
  /// Touched only by the thread calling tick(); workers never see it.
  std::unique_ptr<obs::MetricsSink> sink_;
  /// The engine exports' extra sinks: just this scheduler's (null = none).
  [[nodiscard]] std::array<const obs::MetricsSink*, 1> extras() const { return {sink_.get()}; }
};

}  // namespace decloud::engine
