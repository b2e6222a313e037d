// One counter per fact (DESIGN.md §3e counter catalogue): every engine
// counter in the merged metrics export equals the EngineReport field it
// restates, under the CI chaos plan with retries and the journal on, the
// journal's allocation rate equals the report's, auction.runs counts every
// producer mechanism run, and none of the retired duplicate counters comes
// back.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "engine/driver.hpp"
#include "fault/fault.hpp"
#include "journal/journal.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"

namespace decloud::engine {
namespace {

constexpr const char* kChaosPlan =
    "withhold_reveal:p=0.2;dishonest_vote:p=0.25;deny_agreement:p=0.2;reject_ingest:p=0.1;"
    "corrupt_sealed_bid:p=0.05;duplicate_sealed_bid:p=0.05;corrupt_allocation:p=0.05";

/// The value of gauge `name` in a merged metrics JSON export, if present.
std::optional<double> gauge(const std::string& json, const std::string& name) {
  const std::size_t gauges = json.find("\"gauges\":{");
  if (gauges == std::string::npos) return std::nullopt;
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key, gauges);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

/// The value of counter `name` in a merged metrics JSON export, if present.
std::optional<std::size_t> counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return std::nullopt;
  return static_cast<std::size_t>(std::strtoull(json.c_str() + at + key.size(), nullptr, 10));
}

// engine_driver --shards 4 --requests 200 --seed 7 --bids-per-epoch 60
// --fault-plan <chaos> --fault-seed 42 --retry-attempts 2 --journal-out …
TEST(EngineMetrics, CountersReconcileWithReport) {
  EngineConfig config;
  config.router.num_shards = 4;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 8;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  config.market.consensus.max_remine_attempts = 1;
  config.observability = true;
  config.retry.max_attempts = 2;
  config.fault_plan = fault::FaultPlan::parse(kChaosPlan);
  config.fault_seed = 42;
  config.journal_capacity = 65536;

  TraceDriverConfig driver;
  driver.workload.num_requests = 200;
  driver.workload.num_offers = 100;
  driver.located_fraction = 0.9;
  driver.seed = 7;

  stream::StreamConfig stream_config;
  stream_config.engine = config;
  stream_config.triggers.bids = 60;
  stream::StreamingMarket market(std::move(stream_config));
  const EngineReport report = stream::drive_trace_stream(market, driver).drive.report;
  const journal::Journal* journal = market.market_engine().journal();
  ASSERT_NE(journal, nullptr);
  const obs::MetricsSink telemetry = journal::telemetry_sink(*journal);
  const obs::MetricsSink* extras[] = {market.scheduler().sink(), market.sink(), &telemetry};
  const std::string json = market.market_engine().metrics_json(extras);

  ASSERT_GT(report.bids_retry_succeeded, 0u) << "the plan must exercise retries";
  const std::pair<const char*, std::size_t> twins[] = {
      {"engine.bids_retry_scheduled", report.bids_retry_scheduled},
      {"engine.bids_retry_succeeded", report.bids_retry_succeeded},
      {"engine.bids_retry_dropped", report.bids_retry_dropped},
      {"engine.bids_rejected_backpressure", report.bids_rejected_backpressure},
      {"engine.bids_spilled", report.bids_spilled},
      {"engine.shard_epochs", report.total.rounds},
      {"engine.bids_carried", report.total.bids_carried},
      {"engine.offers_abandoned", report.total.offers_abandoned},
      {"engine.epochs", report.epochs},
      {"fault.agreements_denied", report.total.agreements_denied},
      // Only the duplicate_sealed_bid fault makes byte-identical copies.
      {"fault.duplicates_rejected", report.total.bids_duplicate_rejected},
  };
  for (const auto& [name, expected] : twins) {
    EXPECT_EQ(counter(json, name), std::optional<std::size_t>(expected)) << name;
  }

  // The producer runs the mechanism once per shard round plus once per
  // re-mine, so auction.runs counts runs, not accepted rounds.
  const std::optional<std::size_t> remined = counter(json, "fault.blocks_remined");
  ASSERT_TRUE(remined.has_value());
  ASSERT_GT(*remined, 0u) << "the plan must exercise re-mines";
  EXPECT_EQ(counter(json, "auction.runs"),
            std::optional<std::size_t>(report.total.rounds + *remined));

  // The journal's rate counts standing trades: a denied trade is taken
  // back, as in the report's requests_allocated / requests_submitted.
  ASSERT_GT(report.total.agreements_denied, 0u) << "the plan must exercise denials";
  EXPECT_EQ(gauge(json, "journal.allocation_rate"),
            std::optional<double>(report.total.allocation_rate()));

  for (const char* retired :
       {"market.rounds", "market.requests_allocated", "market.resubmissions",
        "stream.micro_epochs", "stream.bids_rejected", "driver.bids_generated",
        "driver.bids_admitted", "driver.bids_rejected", "journal.ingest_rejected",
        "journal.ingest_deferred", "journal.retries_admitted", "journal.retries_dropped",
        "journal.epoch_closes", "journal.trades", "journal.trades_denied",
        "journal.blocks_mined", "journal.blocks_rejected", "journal.blocks_remined",
        "journal.residue_carried", "journal.ingest_admitted", "router.num_shards"}) {
    EXPECT_EQ(counter(json, retired), std::nullopt) << retired;
  }
}

}  // namespace
}  // namespace decloud::engine
