#include "stream/streaming_market.hpp"

#include "common/ensure.hpp"
#include "wal/wal.hpp"

namespace decloud::stream {

StreamingMarket::StreamingMarket(StreamConfig config)
    : config_(std::move(config)), engine_(config_.engine), scheduler_(engine_, config_.threads) {
  DECLOUD_EXPECTS_MSG(config_.epoch_interval > 0,
                      "micro-epoch interval must advance simulated time");
  if (config_.engine.observability) {
    sink_ = std::make_unique<obs::MetricsSink>("stream", config_.engine.clock);
  }
}

void StreamingMarket::close_micro_epoch(CloseReason reason) {
  DECLOUD_EXPECTS_MSG(scheduler_.epochs() < static_cast<std::size_t>(INT64_MAX),
                      "micro-epoch count overflows the simulated clock");
  // Simulated timestamps are a pure function of the close COUNT — the
  // scheduler run loop's n·interval sequence — never of wall time, so
  // every run over the same stream closes at identical timestamps.
  const Time now = static_cast<Time>(scheduler_.epochs()) * config_.epoch_interval;
  {
    obs::SpanScope span(sink_.get(), "micro_epoch");
    span.add_work(submitted_ - closed_submitted_);
    scheduler_.tick(now, reason, submitted_ - closed_submitted_);
  }
  closed_submitted_ = submitted_;
  if (sink_ != nullptr) {
    obs::MetricsRegistry& m = sink_->metrics();
    switch (reason) {
      case CloseReason::kBidCount: m.counter("stream.close_bid_count").add(1); break;
      case CloseReason::kFlush: m.counter("stream.close_flush").add(1); break;
      case CloseReason::kDrain: m.counter("stream.close_drain").add(1); break;
    }
  }
}

bool StreamingMarket::maybe_close() {
  if (config_.triggers.bids == 0 || submitted_ - closed_submitted_ < config_.triggers.bids) {
    return false;
  }
  close_micro_epoch(CloseReason::kBidCount);
  return true;
}

template <typename Bid>
StreamAdmission StreamingMarket::submit_bid(const Bid& bid) {
  // Count the submission BEFORE asking the engine: the trigger state must
  // be a function of the submission sequence alone (see class comment).
  ++submitted_;
  StreamAdmission admission;
  admission.engine = engine_.submit(bid);
  if (sink_ != nullptr) sink_->metrics().counter("stream.bids_submitted").add(1);
  admission.closed_micro_epoch = maybe_close();
  return admission;
}

StreamAdmission StreamingMarket::submit(const auction::Request& request) {
  // Validate at the stream boundary so a malformed bid faults the caller
  // BEFORE it advances the trigger state (the engine validates again on
  // its own boundary; the check is pure, so twice is harmless).
  auction::validate(request);
  return submit_bid(request);
}

StreamAdmission StreamingMarket::submit(const auction::Offer& offer) {
  auction::validate(offer);
  return submit_bid(offer);
}

bool StreamingMarket::flush() {
  // Logged even when it no-ops: replay re-runs the same no-op, keeping the
  // input sequence aligned with what the caller actually did.
  if (wal_ != nullptr) (void)wal_->append_flush();
  // Only close over PENDING submissions: an empty flush would still tick
  // the scheduler, desynchronizing the epoch count (hence the timestamp
  // sequence and the report) from the reference batch loop.
  if (submitted_ == closed_submitted_) return false;
  close_micro_epoch(CloseReason::kFlush);
  return true;
}

std::size_t StreamingMarket::drain() {
  // The drain tail reuses the scheduler's own loop — identical stopping
  // rule (idle or budget exhausted) and timestamp sequence as a bare
  // scheduler.run(drain_epochs, …) call.
  const Time now = static_cast<Time>(scheduler_.epochs()) * config_.epoch_interval;
  const std::size_t ran = scheduler_.run(config_.drain_epochs, now, config_.epoch_interval);
  closed_submitted_ = submitted_;
  if (sink_ != nullptr && ran > 0) sink_->metrics().counter("stream.close_drain").add(ran);
  return ran;
}

std::string StreamingMarket::metrics_json() const {
  const obs::MetricsSink* extras[] = {scheduler_.sink(), sink_.get()};
  return engine_.metrics_json(extras);
}

std::string StreamingMarket::metrics_prometheus() const {
  const obs::MetricsSink* extras[] = {scheduler_.sink(), sink_.get()};
  return engine_.metrics_prometheus(extras);
}

std::string StreamingMarket::trace_json() const {
  const obs::MetricsSink* extras[] = {scheduler_.sink(), sink_.get()};
  return engine_.trace_json(extras);
}

}  // namespace decloud::stream
