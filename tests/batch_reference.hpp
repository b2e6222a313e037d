// The batch submit-then-tick reference loop: the oracle the one trace
// drive loop (stream::drive_trace_stream) is compared against.
//
// Written on a bare MarketEngine + EpochScheduler, without StreamingMarket,
// so a stream run whose bid-count trigger is `bids_per_epoch` must
// reproduce its EngineReport and journal bytes (DESIGN.md §3h).  Closes
// are attributed as the stream's triggers would be: a full batch is a
// bid-count close, a short (or the single whole-trace) batch a flush.
// Timestamps follow the StreamConfig defaults.
#pragma once

#include <algorithm>
#include <cstdint>

#include "engine/driver.hpp"
#include "engine/epoch_scheduler.hpp"
#include "stream/streaming_market.hpp"

namespace decloud::test {

/// Submits the trace `bids_per_epoch` bids per tick (0 = the whole trace
/// before one tick), then runs up to `drain_epochs` drain ticks.
inline engine::DriveOutcome drive_batch(
    engine::MarketEngine& engine, engine::EpochScheduler& scheduler,
    const engine::TraceDriverConfig& config, std::size_t bids_per_epoch,
    std::size_t drain_epochs = stream::StreamConfig{}.drain_epochs) {
  const engine::TraceStream trace = engine::make_trace_stream(config, engine.config());
  const std::size_t n_req = trace.snapshot.requests.size();
  const std::size_t batch = bids_per_epoch == 0 ? trace.order.size() : bids_per_epoch;
  const stream::StreamConfig timing;
  engine::DriveOutcome outcome;
  outcome.bids_generated = trace.order.size();
  Time now = 0;  // close n is stamped n·epoch_interval, as in the stream
  for (std::size_t done = 0; done < trace.order.size(); now += timing.epoch_interval) {
    const std::size_t stop = std::min(trace.order.size(), done + batch);
    const std::uint64_t submitted = stop - done;
    for (; done < stop; ++done) {
      const std::size_t i = trace.order[done];
      const bool admitted = (i < n_req ? engine.submit(trace.snapshot.requests[i])
                                       : engine.submit(trace.snapshot.offers[i - n_req]))
                                .admitted();
      ++(admitted ? outcome.bids_admitted : outcome.bids_rejected);
    }
    scheduler.tick(now,
                   bids_per_epoch != 0 && submitted == batch ? journal::CloseReason::kBidCount
                                                             : journal::CloseReason::kFlush,
                   submitted);
  }
  (void)scheduler.run(drain_epochs, now, timing.epoch_interval);
  outcome.report = scheduler.report();
  return outcome;
}

}  // namespace decloud::test
