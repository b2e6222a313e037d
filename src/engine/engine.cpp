#include "engine/engine.hpp"

#include <type_traits>
#include <utility>

#include "common/audit.hpp"
#include "common/ensure.hpp"
#include "fault/crash.hpp"
#include "ledger/codec.hpp"
#include "wal/wal.hpp"

namespace decloud::engine {

MarketEngine::MarketEngine(EngineConfig config)
    : config_(std::move(config)), router_(config_.router) {
  if (!config_.fault_plan.empty()) {
    injector_ =
        std::make_unique<const fault::FaultInjector>(config_.fault_plan, config_.fault_seed);
  }
  if (config_.journal_capacity > 0) {
    journal_ = std::make_unique<journal::Journal>(router_.num_shards() + 1,
                                                  config_.journal_capacity);
  }
  shards_.reserve(router_.num_shards());
  for (std::size_t s = 0; s < router_.num_shards(); ++s) {
    auto shard = std::make_unique<Shard>(config_);
    if (config_.observability) {
      shard->sink =
          std::make_unique<obs::MetricsSink>("shard" + std::to_string(s), config_.clock);
    }
    shard->hooks = {shard->sink.get(), journal_.get(), s + 1, injector_.get(), s};
    shard->market.attach(shard->hooks);
    shards_.push_back(std::move(shard));
  }
}

std::uint64_t MarketEngine::retry_backoff(std::size_t attempt) {
  DECLOUD_EXPECTS(attempt >= 1);
  const std::size_t shift = attempt - 1 > 16 ? 16 : attempt - 1;  // cap the exponent
  return std::uint64_t{1} << shift;
}

void MarketEngine::defer(Shard& shard, IngestItem item, std::size_t attempt) {
  const std::uint64_t due =
      shard.epochs_started.load(std::memory_order_relaxed) + retry_backoff(attempt);
  {
    const std::lock_guard<dsched::mutex> lock(shard.deferred_mutex);
    shard.deferred.push_back({std::move(item), attempt, due});
  }
  shard.retries_scheduled.fetch_add(1, std::memory_order_relaxed);
}

template <typename Bid>
EngineAdmission MarketEngine::submit_bid(const Bid& bid) {
  constexpr std::uint64_t kIsOffer = std::is_same_v<Bid, auction::Offer> ? 1 : 0;
  auction::validate(bid);
  const Route route = router_.route(bid);
  if (wal_ != nullptr) {
    // Log-before-apply: the bid reaches its shard's WAL segment before
    // any engine state changes, so a crash anywhere past this point
    // replays it.
    std::vector<std::uint8_t> payload;
    if constexpr (kIsOffer == 1) {
      payload = ledger::encode_offer(bid);
    } else {
      payload = ledger::encode_request(bid);
    }
    const std::uint64_t wal_seq = wal_->append_bid(route.shard + 1, kIsOffer == 1, payload);
    fault::crash_if(crash_, fault::CrashSite::kAfterBidAppend, wal_seq, route.shard);
  }
  Shard& shard = *shards_[route.shard];
  // A kRejectIngest fault makes the queue refuse this submission exactly
  // as if it were full — the recovery path (retry or final rejection) is
  // identical to real backpressure.
  const std::uint64_t seq = shard.ingest_seq.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t epoch = shard.epochs_started.load(std::memory_order_relaxed);
  const bool admitted =
      !shard.hooks.fire(fault::FaultKind::kRejectIngest, {0, route.shard, seq, 0}, epoch) &&
      shard.queue.push(IngestItem{bid});
  if (!admitted) {
    if (config_.retry.max_attempts > 0) {
      defer(shard, IngestItem{bid}, 1);
      shard.hooks.record({journal::EventKind::kIngestDeferred, 0, epoch, kIsOffer, seq, 1});
      return {EngineAdmission::Reason::kDeferred, route.shard};
    }
    shard.rejected_backpressure.fetch_add(1, std::memory_order_relaxed);
    shard.hooks.record({journal::EventKind::kIngestRejected, 0, epoch, kIsOffer, seq,
                        static_cast<std::uint64_t>(journal::RejectCause::kBackpressure)});
    return {EngineAdmission::Reason::kBackpressure, route.shard};
  }
  if (route.kind == RouteKind::kSpilled) {
    shard.spilled.fetch_add(1, std::memory_order_relaxed);
  }
  shard.hooks.record({journal::EventKind::kIngestAdmitted, 0, epoch, kIsOffer, seq});
  return {EngineAdmission::Reason::kNone, route.shard};
}

EngineAdmission MarketEngine::submit(const auction::Request& request) {
  return submit_bid(request);
}

EngineAdmission MarketEngine::submit(const auction::Offer& offer) { return submit_bid(offer); }

std::size_t MarketEngine::queued_bids() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.size() + shard->market.queued_bids();
    const std::lock_guard<dsched::mutex> lock(shard->deferred_mutex);
    total += shard->deferred.size();
  }
  return total;
}

void MarketEngine::run_shard_epoch(std::size_t shard_index, Time now) {
  DECLOUD_EXPECTS(shard_index < shards_.size());
  Shard& shard = *shards_[shard_index];
  const std::uint64_t epoch = shard.epochs_started.fetch_add(1, std::memory_order_relaxed) + 1;
  fault::crash_if(crash_, fault::CrashSite::kMidEpoch, epoch, shard_index);
  // Flush due retries ahead of the queue drain: a deferred bid was
  // refused BEFORE anything currently queued was admitted, so it keeps
  // its seniority.  Retried bids enter the shard market directly — the
  // bounded queue already refused them once; bouncing them off it again
  // would make the backoff schedule depend on unrelated queue depth.
  if (config_.retry.max_attempts > 0) {
    obs::SpanScope span(shard.hooks.sink, "retry_flush");
    std::vector<Deferred> due;
    {
      const std::lock_guard<dsched::mutex> lock(shard.deferred_mutex);
      std::vector<Deferred> later;
      later.reserve(shard.deferred.size());
      for (Deferred& d : shard.deferred) {
        (d.due_epoch <= epoch ? due : later).push_back(std::move(d));
      }
      shard.deferred = std::move(later);
    }
    for (Deferred& d : due) {
      const std::uint64_t seq = shard.retry_seq++;
      const std::uint64_t is_offer = d.item.bid.index() == 0 ? 0 : 1;
      if (shard.hooks.fire(fault::FaultKind::kRejectIngest,
                           {epoch, shard_index, seq, d.attempt}, epoch)) {
        if (d.attempt < config_.retry.max_attempts) {
          const std::uint64_t next_due = epoch + retry_backoff(d.attempt + 1);
          {
            const std::lock_guard<dsched::mutex> lock(shard.deferred_mutex);
            shard.deferred.push_back({std::move(d.item), d.attempt + 1, next_due});
          }
          shard.retries_scheduled.fetch_add(1, std::memory_order_relaxed);
          shard.hooks.record(
              {journal::EventKind::kIngestDeferred, 0, epoch, is_offer, seq, d.attempt + 1});
        } else {
          ++shard.retries_dropped;
          shard.hooks.record(
              {journal::EventKind::kRetryDropped, 0, epoch, is_offer, seq, d.attempt});
        }
        continue;
      }
      std::visit([&](const auto& bid) { shard.market.submit(bid); }, d.item.bid);
      ++shard.retries_succeeded;
      shard.hooks.record(
          {journal::EventKind::kRetryAdmitted, 0, epoch, is_offer, seq, d.attempt});
    }
    span.add_work(due.size());
  }
  {
    obs::SpanScope span(shard.hooks.sink, "epoch_drain");
    std::size_t drained = 0;
    for (IngestItem& item : shard.queue.drain()) {
      std::visit([&](const auto& bid) { shard.market.submit(bid); }, item.bid);
      ++drained;
    }
    span.add_work(drained);
    shard.hooks.count("engine.bids_drained", drained);
  }
  if (shard.market.queued_bids() == 0) return;  // idle shard: no empty blocks
  const ledger::RoundOutcome outcome = shard.market.run_round(now);
  ++shard.epochs_run;
  if (outcome.block_accepted && wal_ != nullptr) {
    // Not an input: a fingerprint of the shard chain's growth, so recovery
    // can cross-check its re-executed rounds against what the dead process
    // actually committed.
    const ledger::Blockchain& chain = shard.market.protocol().chain();
    wal_->append_block(shard_index, chain.height(), chain.tip_hash());
    fault::crash_if(crash_, fault::CrashSite::kAfterBlockAppend, chain.height(), shard_index);
  }
}

EngineReport MarketEngine::report() const {
  EngineReport report;
  report.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardReport sr;
    sr.shard = s;
    sr.epochs = shard.epochs_run;
    sr.bids_rejected_backpressure = shard.rejected_backpressure.load(std::memory_order_relaxed);
    sr.bids_spilled = shard.spilled.load(std::memory_order_relaxed);
    sr.bids_retry_scheduled = shard.retries_scheduled.load(std::memory_order_relaxed);
    sr.bids_retry_succeeded = shard.retries_succeeded;
    sr.bids_retry_dropped = shard.retries_dropped;
    sr.stats = shard.market.stats();

    merge_stats(report.total, sr.stats);
    report.bids_rejected_backpressure += sr.bids_rejected_backpressure;
    report.bids_spilled += sr.bids_spilled;
    report.bids_retry_scheduled += sr.bids_retry_scheduled;
    report.bids_retry_succeeded += sr.bids_retry_succeeded;
    report.bids_retry_dropped += sr.bids_retry_dropped;
    report.shards.push_back(std::move(sr));
  }
  if constexpr (decloud::audit::kEnabled) audit_report(report);
  return report;
}

obs::MetricsSink MarketEngine::engine_summary_sink() const {
  obs::MetricsSink sink("engine");
  obs::MetricsRegistry& m = sink.metrics();
  std::size_t backpressure = 0, spilled = 0, epochs = 0;
  std::size_t retries = 0, retry_ok = 0, retry_dropped = 0;
  std::size_t carried = 0, offers_gone = 0;
  for (const auto& shard : shards_) {
    backpressure += shard->rejected_backpressure.load(std::memory_order_relaxed);
    spilled += shard->spilled.load(std::memory_order_relaxed);
    epochs += shard->epochs_run;
    retries += shard->retries_scheduled.load(std::memory_order_relaxed);
    retry_ok += shard->retries_succeeded;
    retry_dropped += shard->retries_dropped;
    carried += shard->market.stats().bids_carried;
    offers_gone += shard->market.stats().offers_abandoned;
  }
  m.counter("engine.bids_rejected_backpressure").add(backpressure);
  m.counter("engine.bids_spilled").add(spilled);
  m.counter("engine.shard_epochs").add(epochs);
  m.counter("engine.bids_retry_scheduled").add(retries);
  m.counter("engine.bids_retry_succeeded").add(retry_ok);
  m.counter("engine.bids_retry_dropped").add(retry_dropped);
  m.counter("engine.bids_carried").add(carried);
  m.counter("engine.offers_abandoned").add(offers_gone);
  m.gauge("engine.num_shards").set(static_cast<double>(shards_.size()));
  router_.annotate(m);
  return sink;
}

std::vector<const obs::MetricsSink*> MarketEngine::export_order(
    const obs::MetricsSink* engine_sink,
    std::span<const obs::MetricsSink* const> extra_sinks) const {
  std::vector<const obs::MetricsSink*> sinks;
  sinks.reserve(shards_.size() + 1 + extra_sinks.size());
  sinks.push_back(engine_sink);
  for (const obs::MetricsSink* extra : extra_sinks) {
    if (extra != nullptr) sinks.push_back(extra);
  }
  for (const auto& shard : shards_) {
    if (shard->sink != nullptr) sinks.push_back(shard->sink.get());
  }
  return sinks;
}

std::string MarketEngine::metrics_json(
    std::span<const obs::MetricsSink* const> extra_sinks) const {
  const obs::MetricsSink engine_sink = engine_summary_sink();
  return obs::merged_metrics_json(export_order(&engine_sink, extra_sinks));
}

std::string MarketEngine::metrics_prometheus(
    std::span<const obs::MetricsSink* const> extra_sinks) const {
  const obs::MetricsSink engine_sink = engine_summary_sink();
  return obs::merged_metrics_prometheus(export_order(&engine_sink, extra_sinks));
}

std::string MarketEngine::trace_json(
    std::span<const obs::MetricsSink* const> extra_sinks) const {
  const obs::MetricsSink engine_sink = engine_summary_sink();
  return obs::merged_chrome_trace(export_order(&engine_sink, extra_sinks));
}

}  // namespace decloud::engine
