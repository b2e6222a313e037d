// The trace drive loop: the one place a generated workload is driven
// through the market.
//
// Feeds the deterministic workload stream (engine::make_trace_stream:
// generator, location stamping, interleaved order) into a StreamingMarket
// one bid at a time, letting the market's own micro-epoch triggers decide
// when to clear, then flushes the tail and drains the residue.  Batch
// clearing is not a separate mode but a trigger policy: a bid-count
// trigger of N closes exactly where a submit-N-then-tick loop would tick,
// and no trigger at all leaves the single flush close — the whole trace
// in one epoch (DESIGN.md §3h).
//
// Durability is an attachment of the same loop: with DurableOptions the
// loop opens a wal::DurableLog, which creates or recovers the write-ahead
// log and resumes the loop where a crashed run stopped (DESIGN.md §3k).
#pragma once

#include "engine/driver.hpp"
#include "stream/streaming_market.hpp"

namespace decloud::wal {
struct DurableOptions;
}  // namespace decloud::wal

namespace decloud::stream {

/// Outcome of one driven run.
struct StreamDriveOutcome {
  engine::DriveOutcome drive;
  std::size_t micro_epochs = 0;    ///< closes during the stream (incl. flush)
  std::size_t drain_epochs = 0;    ///< residue-clearing ticks after the stream
};

/// Submits the bid at `position` of `trace.order` to `market`: the drive
/// loop's one submit, shared by recovery's replay.
StreamAdmission submit_trace_bid(StreamingMarket& market, const engine::TraceStream& trace,
                                 std::size_t position);

/// Streams the trace for `config` into the fresh `market` bid-by-bid,
/// flushes, and drains.  With `durable` the run is logged (and, with
/// durable->recover, first recovered) as wal/durable/durable.hpp
/// describes.  Deterministic in (config, market config); the scheduler
/// thread count never changes the report (engine determinism contract).
StreamDriveOutcome drive_trace_stream(StreamingMarket& market,
                                      const engine::TraceDriverConfig& config,
                                      const wal::DurableOptions* durable = nullptr);

}  // namespace decloud::stream
