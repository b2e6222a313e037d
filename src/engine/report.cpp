#include "engine/report.hpp"

#include <cstdio>

#include "common/audit.hpp"

namespace decloud::engine {

namespace {

void append_stats(std::string& out, const ledger::MarketStats& st) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"rounds\":%zu,\"requests_submitted\":%zu,\"requests_allocated\":%zu,"
                "\"requests_abandoned\":%zu,\"offers_submitted\":%zu,"
                "\"offers_abandoned\":%zu,\"bids_carried\":%zu,"
                "\"bids_duplicate_rejected\":%zu,",
                st.rounds, st.requests_submitted, st.requests_allocated,
                st.requests_abandoned, st.offers_submitted, st.offers_abandoned,
                st.bids_carried, st.bids_duplicate_rejected);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"agreements_denied\":%zu,\"total_welfare\":%.17g,\"total_settled\":%.17g,"
                "\"allocation_latency\":[",
                st.agreements_denied, st.total_welfare, st.total_settled);
  out += buf;
  for (std::size_t i = 0; i < st.allocation_latency.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%zu", i == 0 ? "" : ",", st.allocation_latency[i]);
    out += buf;
  }
  out += "]}";
}

}  // namespace

void merge_stats(ledger::MarketStats& total, const ledger::MarketStats& shard) {
  total.rounds += shard.rounds;
  total.requests_submitted += shard.requests_submitted;
  total.requests_allocated += shard.requests_allocated;
  total.requests_abandoned += shard.requests_abandoned;
  total.offers_submitted += shard.offers_submitted;
  total.offers_abandoned += shard.offers_abandoned;
  total.bids_carried += shard.bids_carried;
  total.bids_duplicate_rejected += shard.bids_duplicate_rejected;
  total.agreements_denied += shard.agreements_denied;
  total.total_welfare += shard.total_welfare;
  total.total_settled += shard.total_settled;
  if (total.allocation_latency.size() < shard.allocation_latency.size()) {
    total.allocation_latency.resize(shard.allocation_latency.size(), 0);
  }
  for (std::size_t i = 0; i < shard.allocation_latency.size(); ++i) {
    total.allocation_latency[i] += shard.allocation_latency[i];
  }
}

void audit_report(const EngineReport& report) {
  using decloud::audit::check;

  ledger::MarketStats remerged;
  std::size_t rejected = 0;
  std::size_t spilled = 0;
  std::size_t retry_scheduled = 0;
  std::size_t retry_succeeded = 0;
  std::size_t retry_dropped = 0;
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const ShardReport& s = report.shards[i];
    check(s.shard == i, "shard slices stored in fixed shard order");
    check(s.welfare() == s.stats.total_welfare, "shard welfare alias reconciles");
    check(s.bids_retry_succeeded + s.bids_retry_dropped <= s.bids_retry_scheduled,
          "resolved retries bounded by scheduled retries");
    merge_stats(remerged, s.stats);
    rejected += s.bids_rejected_backpressure;
    spilled += s.bids_spilled;
    retry_scheduled += s.bids_retry_scheduled;
    retry_succeeded += s.bids_retry_succeeded;
    retry_dropped += s.bids_retry_dropped;
  }
  check(report.bids_rejected_backpressure == rejected,
        "backpressure counter equals the per-shard sum");
  check(report.bids_spilled == spilled, "spillover counter equals the per-shard sum");
  check(report.bids_retry_scheduled == retry_scheduled,
        "retry-scheduled counter equals the per-shard sum");
  check(report.bids_retry_succeeded == retry_succeeded,
        "retry-succeeded counter equals the per-shard sum");
  check(report.bids_retry_dropped == retry_dropped,
        "retry-dropped counter equals the per-shard sum");

  // The re-merge above walked shards in the same fixed order report()
  // uses, so every field — welfare doubles included — compares exactly.
  check(remerged.rounds == report.total.rounds, "total rounds reconcile");
  check(remerged.requests_submitted == report.total.requests_submitted,
        "total requests_submitted reconciles");
  check(remerged.requests_allocated == report.total.requests_allocated,
        "total requests_allocated reconciles");
  check(remerged.requests_abandoned == report.total.requests_abandoned,
        "total requests_abandoned reconciles");
  check(remerged.offers_submitted == report.total.offers_submitted,
        "total offers_submitted reconciles");
  check(remerged.offers_abandoned == report.total.offers_abandoned,
        "total offers_abandoned reconciles");
  check(remerged.bids_carried == report.total.bids_carried, "total bids_carried reconciles");
  check(report.micro_epochs == report.epochs,
        "every scheduler tick closes exactly one micro-epoch (batch ticks "
        "are degenerate micro-epochs; streaming closes route through ticks)");
  check(remerged.bids_duplicate_rejected == report.total.bids_duplicate_rejected,
        "total bids_duplicate_rejected reconciles");
  check(remerged.agreements_denied == report.total.agreements_denied,
        "total agreements_denied reconciles");
  check(remerged.total_welfare == report.total.total_welfare,
        "total welfare reconciles bitwise (fixed-order merge)");
  check(remerged.total_settled == report.total.total_settled,
        "total settled money reconciles bitwise (fixed-order merge)");
  check(remerged.allocation_latency == report.total.allocation_latency,
        "latency histogram reconciles element-wise");
  check(report.total.requests_allocated <= report.total.requests_submitted,
        "allocations bounded by submissions");
  std::size_t latency_sum = 0;
  for (const std::size_t n : report.total.allocation_latency) latency_sum += n;
  check(latency_sum == report.total.requests_allocated,
        "Σ allocation_latency == requests_allocated");
}

std::string EngineReport::summary_json() const {
  std::string out;
  out.reserve(256 + shards.size() * 256);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"epochs\":%zu,\"micro_epochs\":%zu,\"bids_rejected_backpressure\":%zu,"
                "\"bids_spilled\":%zu,\"bids_retry_scheduled\":%zu,"
                "\"bids_retry_succeeded\":%zu,\"bids_retry_dropped\":%zu,\"total\":",
                epochs, micro_epochs, bids_rejected_backpressure, bids_spilled,
                bids_retry_scheduled, bids_retry_succeeded, bids_retry_dropped);
  out += buf;
  append_stats(out, total);
  out += ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& s = shards[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"shard\":%zu,\"epochs\":%zu,\"rejected\":%zu,\"spilled\":%zu,"
                  "\"retries\":%zu,\"retry_ok\":%zu,\"retry_dropped\":%zu,\"stats\":",
                  i == 0 ? "" : ",", s.shard, s.epochs, s.bids_rejected_backpressure,
                  s.bids_spilled, s.bids_retry_scheduled, s.bids_retry_succeeded,
                  s.bids_retry_dropped);
    out += buf;
    append_stats(out, s.stats);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace decloud::engine
