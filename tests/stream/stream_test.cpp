// StreamingMarket unit behavior: trigger arithmetic, flush/drain
// semantics, residue carry, and the micro-epoch == scheduler-tick
// identity the report audit enforces.
#include <gtest/gtest.h>

#include <string>

#include "engine/driver.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"
#include "trace/workload.hpp"

namespace decloud::stream {
namespace {

engine::EngineConfig engine_config(std::size_t shards) {
  engine::EngineConfig config;
  config.router.num_shards = shards;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 6;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  return config;
}

StreamConfig stream_config(std::size_t shards, std::size_t bids) {
  StreamConfig config;
  config.engine = engine_config(shards);
  config.triggers.bids = bids;
  return config;
}

engine::TraceDriverConfig driver_config(std::size_t requests, std::size_t offers) {
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = requests;
  driver.workload.num_offers = offers;
  driver.located_fraction = 0.8;
  driver.seed = 7;
  return driver;
}

/// A trace stream to feed by hand.
engine::TraceStream make_stream(const engine::TraceDriverConfig& driver,
                                const engine::EngineConfig& config) {
  return engine::make_trace_stream(driver, config);
}

TEST(StreamingMarketTest, BidCountTriggerClosesEveryN) {
  StreamingMarket market(stream_config(1, /*bids=*/10));
  const engine::TraceStream trace = make_stream(driver_config(20, 10), market.config().engine);
  ASSERT_EQ(trace.order.size(), 30u);

  std::size_t closes = 0;
  const std::size_t n_req = trace.snapshot.requests.size();
  for (std::size_t done = 0; done < 25; ++done) {
    const std::size_t i = trace.order[done];
    const StreamAdmission admission = i < n_req
                                          ? market.submit(trace.snapshot.requests[i])
                                          : market.submit(trace.snapshot.offers[i - n_req]);
    if (admission.closed_micro_epoch) ++closes;
    // The trigger fires exactly on the 10th, 20th, … submission.
    EXPECT_EQ(admission.closed_micro_epoch, (done + 1) % 10 == 0) << "at " << done;
  }
  EXPECT_EQ(closes, 2u);
  EXPECT_EQ(market.micro_epochs(), 2u);

  // 5 submissions pending → flush closes one more; a second flush is a
  // no-op (no pending submissions → no tick, no epoch drift).
  EXPECT_TRUE(market.flush());
  EXPECT_EQ(market.micro_epochs(), 3u);
  EXPECT_FALSE(market.flush());
  EXPECT_EQ(market.micro_epochs(), 3u);
}

TEST(StreamingMarketTest, ManualMarketOnlyFlushCloses) {
  StreamingMarket market(stream_config(1, /*bids=*/0));
  const engine::TraceStream trace = make_stream(driver_config(8, 4), market.config().engine);
  const std::size_t n_req = trace.snapshot.requests.size();
  for (const std::size_t i : trace.order) {
    const StreamAdmission admission = i < n_req
                                          ? market.submit(trace.snapshot.requests[i])
                                          : market.submit(trace.snapshot.offers[i - n_req]);
    EXPECT_FALSE(admission.closed_micro_epoch);
  }
  EXPECT_EQ(market.micro_epochs(), 0u);
  EXPECT_TRUE(market.flush());
  EXPECT_EQ(market.micro_epochs(), 1u);
}

TEST(StreamingMarketTest, ResidueCarriesAndDrainClears) {
  StreamConfig config = stream_config(2, /*bids=*/8);
  StreamingMarket market(config);
  const StreamDriveOutcome outcome =
      drive_trace_stream(market, driver_config(40, 20));

  // Several micro-epochs ran, residue was carried between them, and the
  // drain tail bounded it (max_resubmissions) — the report reconciles all
  // of it (audit_report runs inside report() when audits are on).
  EXPECT_GT(outcome.micro_epochs, 2u);
  EXPECT_GT(outcome.drive.report.total.bids_carried, 0u);
  EXPECT_GT(outcome.drive.report.total.requests_allocated, 0u);
  EXPECT_EQ(outcome.drive.report.epochs, outcome.micro_epochs + outcome.drain_epochs);
  EXPECT_EQ(outcome.drive.report.micro_epochs, outcome.drive.report.epochs);
}

TEST(StreamingMarketTest, ObservabilityExportsCarryStreamCounters) {
  StreamConfig config = stream_config(1, /*bids=*/6);
  config.engine.observability = true;
  StreamingMarket market(config);
  (void)drive_trace_stream(market, driver_config(12, 6));

  const std::string metrics = market.metrics_json();
  // engine.epochs counts the closes; the stream keeps only their reasons.
  EXPECT_EQ(metrics.find("stream.micro_epochs"), std::string::npos);
  EXPECT_NE(metrics.find("stream.bids_submitted"), std::string::npos);
  EXPECT_NE(metrics.find("stream.close_bid_count"), std::string::npos);
  const std::string trace = market.trace_json();
  EXPECT_NE(trace.find("micro_epoch"), std::string::npos);
}

TEST(StreamingMarketTest, RejectedSubmissionsStillAdvanceTriggers) {
  // A fault plan that rejects every ingest: the market admits nothing,
  // yet micro-epochs still close on the submission count — trigger state
  // must track the SEQUENCE, not admissions (the batch reference loop
  // ticks on rejected batches too, and alignment depends on matching
  // that).
  StreamConfig config = stream_config(1, /*bids=*/5);
  config.engine.fault_plan = fault::FaultPlan::parse("reject_ingest:p=1.0");
  StreamingMarket market(config);
  const engine::TraceStream trace = make_stream(driver_config(10, 5), market.config().engine);
  const std::size_t n_req = trace.snapshot.requests.size();
  std::size_t rejected = 0;
  for (const std::size_t i : trace.order) {
    const StreamAdmission admission = i < n_req
                                          ? market.submit(trace.snapshot.requests[i])
                                          : market.submit(trace.snapshot.offers[i - n_req]);
    if (!admission.engine.admitted()) ++rejected;
  }
  EXPECT_EQ(rejected, trace.order.size());
  EXPECT_EQ(market.micro_epochs(), trace.order.size() / 5);
}

}  // namespace
}  // namespace decloud::stream
