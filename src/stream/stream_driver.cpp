#include "stream/stream_driver.hpp"

#include <optional>

#include "common/ensure.hpp"
#include "wal/durable/durable.hpp"

namespace decloud::stream {

StreamDriveOutcome drive_trace_stream(StreamingMarket& market,
                                      const engine::TraceDriverConfig& config,
                                      const wal::DurableOptions* durable) {
  // The trace order indexes the run from its first bid, and recovery
  // rebuilds the market from nothing, so the market must be untouched.
  DECLOUD_EXPECTS_MSG(market.submitted() == 0 && market.micro_epochs() == 0,
                      "a trace drive starts on a fresh market");

  const engine::TraceStream stream =
      engine::make_trace_stream(config, market.config().engine);
  const auction::MarketSnapshot& snapshot = stream.snapshot;
  const std::vector<std::size_t>& order = stream.order;
  const std::size_t n_req = snapshot.requests.size();

  std::optional<wal::DurableLog> log;
  if (durable != nullptr) log.emplace(market, order.size(), *durable);
  wal::DriveProgress progress = log ? log->resume() : wal::DriveProgress{};

  while (progress.done < order.size()) {
    const std::size_t i = order[progress.done];
    const StreamAdmission admission = i < n_req ? market.submit(snapshot.requests[i])
                                                : market.submit(snapshot.offers[i - n_req]);
    progress.count(admission.engine.admitted());
    ++progress.done;
  }
  if (!progress.flushed) (void)market.flush();

  StreamDriveOutcome outcome;
  outcome.micro_epochs = market.micro_epochs();
  outcome.drain_epochs = market.drain();
  outcome.drive.bids_generated = order.size();
  outcome.drive.bids_admitted = progress.admitted;
  outcome.drive.bids_rejected = progress.rejected;
  outcome.drive.report = market.report();
  if (obs::MetricsSink* sink = market.scheduler().sink(); sink != nullptr) {
    obs::MetricsRegistry& m = sink->metrics();
    m.counter("driver.bids_generated").add(outcome.drive.bids_generated);
    m.counter("driver.bids_admitted").add(outcome.drive.bids_admitted);
    m.counter("driver.bids_rejected").add(outcome.drive.bids_rejected);
  }
  return outcome;
}

}  // namespace decloud::stream
