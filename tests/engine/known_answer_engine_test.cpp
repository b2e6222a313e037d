// Known-answer pins for the sharded engine's observable bytes: the
// SHA-256 of the flight-recorder encoding (Journal::encode) and of the
// canonical report (EngineReport::summary_json) for a 4-shard streaming
// run with engine_driver's settings, clean and under the 7-kind chaos
// plan the CI chaos job drives.  The engine's byte-identity oracles
// compare two runs of one build (threads, batch vs stream, recovery);
// these constants are fixed, so a change to routing, admission,
// journaling or the report layout that shifts every run alike fails here.
#include <gtest/gtest.h>

#include <string>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
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

std::string sha_hex(const crypto::Digest& d) { return to_hex({d.data(), d.size()}); }

struct Pins {
  std::string journal;
  std::string summary;
};

// engine_driver --shards 4 --requests 200 --seed 7 --bids-per-epoch 60
// --journal-out …, plus --fault-plan/--fault-seed 42/--retry-attempts 2
// for the chaos run.
Pins drive(const fault::FaultPlan& plan, std::size_t retry_attempts) {
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
  config.retry.max_attempts = retry_attempts;
  config.fault_plan = plan;
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
  const stream::StreamDriveOutcome outcome = stream::drive_trace_stream(market, driver);
  const journal::Journal* journal = market.market_engine().journal();
  EXPECT_NE(journal, nullptr);
  return {sha_hex(crypto::Sha256::hash(journal->encode())),
          sha_hex(crypto::Sha256::hash(outcome.drive.report.summary_json()))};
}

TEST(KnownAnswer, EngineCleanRun) {
  const Pins pins = drive({}, 0);
  EXPECT_EQ(pins.journal, "7f937dcb63d972cbdd4d4a9dfa37227a516ef1297cf755a2525bf9b644ddc087");
  EXPECT_EQ(pins.summary, "4395a8638d4db373aa87574cb0c9251dcf4f71bfb7d38995e8c4b642c2a4d4ae");
}

TEST(KnownAnswer, EngineChaosRun) {
  const Pins pins = drive(fault::FaultPlan::parse(kChaosPlan), 2);
  EXPECT_EQ(pins.journal, "b6b92470e2d43b5422881d8f46eec28d0308bd46ed614cf6a319ad0221fcd9c2");
  EXPECT_EQ(pins.summary, "737493b8ff461c79663a263535d88d8f5e411dd6ae180685d6115570de9c23df");
}

}  // namespace
}  // namespace decloud::engine
