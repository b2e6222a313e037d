#include "stream/stream_driver.hpp"

#include <optional>

#include "common/ensure.hpp"
#include "wal/durable/durable.hpp"

namespace decloud::stream {

StreamAdmission submit_trace_bid(StreamingMarket& market, const engine::TraceStream& trace,
                                 std::size_t position) {
  DECLOUD_EXPECTS(position < trace.order.size());
  const std::size_t i = trace.order[position];
  const std::size_t n_req = trace.snapshot.requests.size();
  return i < n_req ? market.submit(trace.snapshot.requests[i])
                   : market.submit(trace.snapshot.offers[i - n_req]);
}

StreamDriveOutcome drive_trace_stream(StreamingMarket& market,
                                      const engine::TraceDriverConfig& config,
                                      const wal::DurableOptions* durable) {
  // The trace order indexes the run from its first bid, and recovery
  // rebuilds the market from nothing, so the market must be untouched.
  DECLOUD_EXPECTS_MSG(market.submitted() == 0 && market.micro_epochs() == 0,
                      "a trace drive starts on a fresh market");

  const engine::TraceStream stream =
      engine::make_trace_stream(config, market.config().engine);
  const std::size_t trace_size = stream.order.size();

  std::optional<wal::DurableLog> log;
  if (durable != nullptr) log.emplace(market, stream, *durable);
  wal::DriveProgress progress = log ? log->resume() : wal::DriveProgress{};

  while (progress.done < trace_size) {
    progress.count(submit_trace_bid(market, stream, progress.done).engine.admitted());
    ++progress.done;
  }
  if (!progress.flushed) (void)market.flush();

  StreamDriveOutcome outcome;
  outcome.micro_epochs = market.micro_epochs();
  outcome.drain_epochs = market.drain();
  outcome.drive.bids_generated = trace_size;
  outcome.drive.bids_admitted = progress.admitted;
  outcome.drive.bids_rejected = progress.rejected;
  outcome.drive.report = market.report();
  return outcome;
}

}  // namespace decloud::stream
