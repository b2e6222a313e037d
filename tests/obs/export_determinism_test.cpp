// The observability acceptance bar (ISSUE 4): a sharded engine run with
// live sinks exports byte-identical metrics JSON, Prometheus text, and
// Chrome trace JSON across scheduler thread counts {1, 2, hw} — and
// attaching the sinks never changes the market results themselves.
#include <gtest/gtest.h>

#include <string>

#include "batch_reference.hpp"
#include "common/thread_pool.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"
#include "obs/clock.hpp"

namespace decloud::engine {
namespace {

EngineConfig engine_config(std::size_t shards, bool observability,
                           obs::Clock* clock = nullptr) {
  EngineConfig config;
  config.router.num_shards = shards;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 8;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  config.observability = observability;
  config.clock = clock;
  return config;
}

constexpr std::size_t kBatch = 20;  // bids per epoch

TraceDriverConfig driver_config() {
  TraceDriverConfig driver;
  driver.workload.num_requests = 40;
  driver.workload.num_offers = 20;
  driver.located_fraction = 0.8;
  driver.seed = 7;
  return driver;
}

struct Exports {
  std::string summary;
  std::string metrics;
  std::string prometheus;
  std::string trace;
};

Exports run_instrumented(std::size_t threads) {
  MarketEngine engine(engine_config(4, /*observability=*/true));
  EpochScheduler scheduler(engine, threads);
  const DriveOutcome outcome = test::drive_batch(engine, scheduler, driver_config(), kBatch);
  return {outcome.report.summary_json(), scheduler.metrics_json(),
          scheduler.metrics_prometheus(), scheduler.trace_json()};
}

TEST(ExportDeterminism, ByteIdenticalAcrossThreadCounts) {
  const std::size_t hw = ThreadPool::default_workers();
  Exports baseline;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    const Exports e = run_instrumented(threads);
    if (baseline.metrics.empty()) {
      baseline = e;
      // Sanity: the export reflects real work, not an empty registry.
      ASSERT_NE(e.metrics.find("engine.shard_epochs"), std::string::npos) << e.metrics;
      ASSERT_NE(e.metrics.find("auction.runs"), std::string::npos) << e.metrics;
      ASSERT_NE(e.trace.find("\"traceEvents\""), std::string::npos);
    } else {
      EXPECT_EQ(e.metrics, baseline.metrics) << "metrics diverge at threads=" << threads;
      EXPECT_EQ(e.prometheus, baseline.prometheus)
          << "prometheus diverges at threads=" << threads;
      EXPECT_EQ(e.trace, baseline.trace) << "trace diverges at threads=" << threads;
      EXPECT_EQ(e.summary, baseline.summary);
    }
  }
}

TEST(ExportDeterminism, SinksNeverChangeMarketResults) {
  // The other half of the zero-cost contract: instrumented and bare runs
  // produce byte-identical market reports.  The sink observes; it never
  // participates.
  MarketEngine bare(engine_config(4, /*observability=*/false));
  EpochScheduler bare_scheduler(bare, 2);
  const std::string without =
      test::drive_batch(bare, bare_scheduler, driver_config(), kBatch).report.summary_json();

  MarketEngine instrumented(engine_config(4, /*observability=*/true));
  EpochScheduler scheduler(instrumented, 2);
  const std::string with =
      test::drive_batch(instrumented, scheduler, driver_config(), kBatch).report.summary_json();

  EXPECT_EQ(with, without);
}

TEST(ExportDeterminism, WallClockChangesTraceButNotMetrics) {
  // A FakeClock with a nonzero step produces nonzero wall durations (so
  // the trace bytes legitimately differ from logical mode), while the
  // metrics export — counters of deterministic work — stays identical.
  obs::FakeClock clock(/*start_ns=*/0, /*auto_step_ns=*/1000);
  MarketEngine engine(engine_config(2, /*observability=*/true, &clock));
  EpochScheduler scheduler(engine, 1);
  (void)test::drive_batch(engine, scheduler, driver_config(), kBatch);
  const std::string timed_metrics = scheduler.metrics_json();
  const std::string timed_trace = scheduler.trace_json();

  MarketEngine logical(engine_config(2, /*observability=*/true));
  EpochScheduler logical_scheduler(logical, 1);
  (void)test::drive_batch(logical, logical_scheduler, driver_config(), kBatch);

  EXPECT_EQ(timed_metrics, logical_scheduler.metrics_json());
  EXPECT_NE(timed_trace, logical_scheduler.trace_json());
  EXPECT_NE(timed_trace.find("\"dur\":"), std::string::npos);
}

TEST(ExportDeterminism, ObservabilityOffExportsOnlyTheSummarySink) {
  // Without observability the shards carry no sinks; the export still
  // works (engine ingest counters + router annotation) and stays valid.
  MarketEngine engine(engine_config(2, /*observability=*/false));
  EpochScheduler scheduler(engine, 1);
  (void)test::drive_batch(engine, scheduler, driver_config(), kBatch);
  EXPECT_EQ(engine.shard_sink(0), nullptr);
  EXPECT_EQ(scheduler.sink(), nullptr);
  const std::string metrics = scheduler.metrics_json();
  EXPECT_NE(metrics.find("engine.num_shards"), std::string::npos) << metrics;
  EXPECT_EQ(metrics.find("auction.runs"), std::string::npos) << metrics;
}

}  // namespace
}  // namespace decloud::engine
