// Deterministic cross-shard aggregation of engine results.
//
// Each shard is an independent market with its own MarketStats; the
// engine's observable output is their merge.  Merging happens in fixed
// shard order (0, 1, …, N−1) — including the floating-point welfare sums —
// so a report is byte-identical for a given (workload, seed, shard count)
// regardless of how many threads executed the epochs.  `summary_json()`
// serializes with exact round-trippable doubles and is the string the
// determinism tests byte-compare.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ledger/market.hpp"

namespace decloud::engine {

/// Per-shard slice of the engine's lifetime statistics.
struct ShardReport {
  std::size_t shard = 0;
  /// Epochs in which this shard actually ran a market round.
  std::size_t epochs = 0;
  /// Submissions refused by this shard's ingest queue (backpressure).
  std::size_t bids_rejected_backpressure = 0;
  /// Location-less bids the id-hash spillover placed here.
  std::size_t bids_spilled = 0;
  /// Refused ingests parked for deterministic retry (IngestRetryPolicy);
  /// re-deferrals count again, so scheduled >= succeeded + dropped is NOT
  /// an identity — scheduled == succeeded + dropped + still-parked.
  std::size_t bids_retry_scheduled = 0;
  /// Retries that re-entered the shard market.
  std::size_t bids_retry_succeeded = 0;
  /// Retries dropped after exhausting the attempt budget.
  std::size_t bids_retry_dropped = 0;
  /// The shard market's own lifetime stats.
  ledger::MarketStats stats;

  /// Shard welfare — explicit alias of stats.total_welfare so the
  /// reconciliation invariant (Σ shard welfare == total.total_welfare) is
  /// directly testable.
  [[nodiscard]] Money welfare() const { return stats.total_welfare; }
};

/// The whole engine's aggregate view.
struct EngineReport {
  std::vector<ShardReport> shards;  // indexed by shard, fixed order

  /// MarketStats merged across shards in shard order.
  ledger::MarketStats total;
  /// Engine-level counters (sums of the per-shard ones).
  std::size_t bids_rejected_backpressure = 0;
  std::size_t bids_spilled = 0;
  std::size_t bids_retry_scheduled = 0;
  std::size_t bids_retry_succeeded = 0;
  std::size_t bids_retry_dropped = 0;
  std::size_t epochs = 0;  ///< scheduler ticks executed
  /// Micro-epochs closed.  In a bare scheduler loop every tick is a
  /// (degenerate) micro-epoch, so this equals `epochs`; a StreamingMarket
  /// counts its deterministic closes (bid-count trigger, flush and
  /// drain, see stream/streaming_market.hpp) through the same
  /// scheduler ticks.  Keeping the two equal is what lets an aligned
  /// streaming run byte-match a batch run's summary_json.
  std::size_t micro_epochs = 0;

  /// Canonical serialization: every field of every shard plus the totals,
  /// doubles printed with "%.17g" so equal values produce equal bytes.
  [[nodiscard]] std::string summary_json() const;
};

/// Accumulates `shard` into `total` (counts summed, latency histograms
/// added element-wise).  Exposed for tests that reconcile per-shard stats
/// against the aggregate.
void merge_stats(ledger::MarketStats& total, const ledger::MarketStats& shard);

/// DECLOUD_AUDIT invariant: every engine-level counter and every field of
/// `total` (including the floating-point welfare sums, which merge in
/// fixed shard order and therefore compare EXACTLY) must reconcile with an
/// independent re-merge of the per-shard slices.  Always compiled — tests
/// call it directly; MarketEngine::report() / EpochScheduler::report()
/// invoke it only when audits are enabled.  Throws
/// decloud::audit::audit_error on divergence.
void audit_report(const EngineReport& report);

}  // namespace decloud::engine
