// Export edge cases (ISSUE 9 satellite): the merge/export pipeline's
// degenerate inputs — empty registries, empty extra sinks in the engine's
// export_order, and merges of empty histograms — must produce well-formed,
// stable bytes, because the CI byte-diff jobs cmp these exports verbatim.
#include <gtest/gtest.h>

#include <string>

#include "batch_reference.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/epoch_scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "stats/histogram.hpp"

namespace decloud::obs {
namespace {

TEST(ExportEdgeCases, EmptyRegistryExportsAreWellFormed) {
  const MetricsRegistry empty;
  EXPECT_TRUE(empty.empty());
  // Every section present even when empty — consumers can always index
  // "counters"/"gauges"/"histograms" without existence checks.
  EXPECT_EQ(empty.to_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  // Prometheus exposition of nothing is the empty document, not a stray
  // header or newline.
  EXPECT_EQ(empty.to_prometheus(), "");
}

TEST(ExportEdgeCases, EmptyExtraSinkNeverChangesEngineExports) {
  engine::EngineConfig config;
  config.router.num_shards = 2;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 6;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;
  config.observability = true;
  engine::MarketEngine eng(config);
  engine::EpochScheduler scheduler(eng, 1);
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = 20;
  driver.workload.num_offers = 10;
  driver.seed = 7;
  (void)test::drive_batch(eng, scheduler, driver, 10);

  const MetricsSink* scheduler_only[] = {scheduler.sink()};
  const std::string baseline_json = eng.metrics_json(scheduler_only);
  const std::string baseline_prom = eng.metrics_prometheus(scheduler_only);

  // An extra sink whose registry is empty contributes nothing: same bytes
  // as the two-sink export.  (This is the journal-off driver path: the
  // extras array is built unconditionally, the empty slots must be inert.)
  const MetricsSink empty_extra("empty-extra");
  const MetricsSink* extras[] = {scheduler.sink(), &empty_extra};
  EXPECT_EQ(eng.metrics_json(extras), baseline_json);
  EXPECT_EQ(eng.metrics_prometheus(extras), baseline_prom);

  // Null entries are skipped outright, not dereferenced.
  const MetricsSink* with_null[] = {scheduler.sink(), nullptr};
  EXPECT_EQ(eng.metrics_json(with_null), baseline_json);
}

TEST(ExportEdgeCases, MergingAnEmptyHistogramLeavesExportBytesUnchanged) {
  MetricsRegistry registry;
  stats::Histogram& h = registry.histogram("latency", 0.0, 8.0, 4);
  h.add(1.0);
  h.add(5.0);
  h.add(7.5, 2.0);
  const std::string before_json = registry.to_json();
  const std::string before_prom = registry.to_prometheus();

  // merge() of an empty same-layout histogram is the identity — bin
  // counts, totals, and therefore every exported byte stay put.
  stats::Histogram empty(0.0, 8.0, 4);
  h.merge(empty);
  EXPECT_EQ(registry.to_json(), before_json);
  EXPECT_EQ(registry.to_prometheus(), before_prom);

  // Same at the registry level: merge_from an empty registry is inert,
  // and merging INTO an empty registry reproduces the source bytes.
  MetricsRegistry other;
  registry.merge_from(other);
  EXPECT_EQ(registry.to_json(), before_json);
  other.merge_from(registry);
  EXPECT_EQ(other.to_json(), before_json);
  EXPECT_EQ(other.to_prometheus(), before_prom);
}

}  // namespace
}  // namespace decloud::obs
