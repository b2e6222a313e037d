// Sharded continuous market: many regional DeCloud markets behind one
// engine.  Bids stream in with locations, the ShardRouter places each in
// its regional market, bounded ingest queues push back when a region is
// flooded, and every micro-epoch close clears all busy shards at once —
// the deployment shape ROADMAP's "planet-scale" direction calls for.
#include <cstdio>

#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"

using namespace decloud;

namespace {

const char* admission_name(engine::EngineAdmission::Reason reason) {
  switch (reason) {
    case engine::EngineAdmission::Reason::kNone:
      return "accepted";
    case engine::EngineAdmission::Reason::kDeferred:
      return "deferred for retry";
    case engine::EngineAdmission::Reason::kBackpressure:
      return "REJECTED (backpressure)";
  }
  return "?";
}

}  // namespace

int main() {
  // Four regional markets over a 100x100 coordinate box; location-less
  // bids hash onto a shard.  Tiny per-shard queues make admission control
  // visible in the output.
  engine::EngineConfig config;
  config.router.num_shards = 4;
  config.router.x1 = 100.0;
  config.router.y1 = 100.0;
  config.queue_capacity = 48;
  config.market.consensus.difficulty_bits = 10;
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;  // parallelism lives across shards

  stream::StreamConfig stream_config;
  stream_config.engine = config;
  stream_config.triggers.bids = 60;  // clear every 60 arriving bids
  stream_config.threads = 0;         // 0 = hardware
  stream::StreamingMarket market(std::move(stream_config));

  std::printf("Sharded market: %zu shards, queue capacity %zu, %zu threads\n\n",
              market.market_engine().num_shards(), config.queue_capacity,
              market.scheduler().threads());

  // Stream a trace workload through: 10%% of bids arrive location-less.
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = 160;
  driver.workload.num_offers = 80;
  driver.located_fraction = 0.9;
  driver.seed = 42;
  (void)stream::drive_trace_stream(market, driver);

  // One hand-made VIP bid to show the admission result a producer sees.
  auction::Request vip;
  vip.id = RequestId(1'000'000);
  vip.client = ClientId(999);
  vip.resources.set(auction::ResourceSchema::kCpu, 2.0);
  vip.window_end = 1'000'000;
  vip.duration = 3600;
  vip.bid = 10.0;
  vip.location = auction::Location{12.0, 88.0};
  const engine::EngineAdmission admission = market.submit(vip).engine;
  std::printf("VIP request at (12, 88): %s by shard %zu\n\n",
              admission_name(admission.reason), admission.shard);
  (void)market.flush();
  (void)market.drain();

  const engine::EngineReport report = market.report();
  std::printf("engine: %zu epochs, %zu bids spilled, %zu rejected by backpressure\n",
              report.epochs, report.bids_spilled, report.bids_rejected_backpressure);
  std::printf("totals: %zu/%zu requests allocated (%.0f%%), welfare %.3f\n\n",
              report.total.requests_allocated, report.total.requests_submitted,
              100.0 * report.total.allocation_rate(), report.total.total_welfare);
  std::printf("%-6s %-8s %-8s %-10s %-10s %-8s\n", "shard", "epochs", "reqs", "allocated",
              "welfare", "spilled");
  for (const engine::ShardReport& shard : report.shards) {
    std::printf("%-6zu %-8zu %-8zu %-10zu %-10.3f %-8zu\n", shard.shard, shard.epochs,
                shard.stats.requests_submitted, shard.stats.requests_allocated,
                shard.welfare(), shard.bids_spilled);
  }
  return 0;
}
