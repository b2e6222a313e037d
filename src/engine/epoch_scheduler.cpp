#include "engine/epoch_scheduler.hpp"

#include "common/audit.hpp"
#include "common/ensure.hpp"

namespace decloud::engine {

EpochScheduler::EpochScheduler(MarketEngine& engine, std::size_t threads) : engine_(engine) {
  const std::size_t workers = threads == 0 ? ThreadPool::default_workers() : threads;
  if (workers > 1 && engine_.num_shards() > 1) pool_.emplace(workers);
  if (engine_.config().observability) {
    sink_ = std::make_unique<obs::MetricsSink>("scheduler", engine_.config().clock);
  }
}

void EpochScheduler::tick(Time now, journal::CloseReason reason, std::uint64_t submissions) {
  // One chunk per shard: the chunk layout (hence which bodies run) is
  // fixed, and each body touches only its own shard's state.  The "epoch"
  // span lives on the scheduler's own sink, so the workers (which write
  // the per-shard sinks) never race it.
  obs::SpanScope span(sink_.get(), "epoch");
  span.add_work(engine_.num_shards());
  run_chunked(pool_ ? &*pool_ : nullptr, 0, engine_.num_shards(),
              [&](std::size_t shard) { engine_.run_shard_epoch(shard, now); });
  ++epochs_;
  if (sink_ != nullptr) sink_->metrics().counter("engine.epochs").add(1);
  if (journal::Journal* journal = engine_.journal(); journal != nullptr) {
    // Control-ring close event, written by the tick thread AFTER the shard
    // fan-out joined — never concurrent with the shard rings.
    journal->append(journal::Journal::kControlRing,
                    {journal::EventKind::kEpochClose, 0, epochs_,
                     static_cast<std::uint64_t>(reason), submissions, 0});
  }
}

std::size_t EpochScheduler::run(std::size_t max_epochs, Time start_time,
                                Seconds epoch_interval) {
  DECLOUD_EXPECTS_MSG(epoch_interval > 0,
                      "epoch interval must advance simulated time, or retry windows never age");
  const std::size_t before = epochs_;
  Time now = start_time;
  for (std::size_t epoch = 0; epoch < max_epochs && engine_.queued_bids() > 0; ++epoch) {
    tick(now);
    now += epoch_interval;
  }
  return epochs_ - before;
}

EngineReport EpochScheduler::report() const {
  EngineReport report = engine_.report();
  report.epochs = epochs_;
  // Every tick is a micro-epoch: the StreamingMarket's closes and drain
  // epochs all run through tick(), so the equality always holds and
  // audit_report checks it.
  report.micro_epochs = epochs_;
  if constexpr (decloud::audit::kEnabled) audit_report(report);
  return report;
}

}  // namespace decloud::engine
