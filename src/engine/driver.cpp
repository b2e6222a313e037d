#include "engine/driver.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "common/rng.hpp"

namespace decloud::engine {

namespace {

/// Stamps locations onto the generated bids.  One dedicated Rng draws in
/// a fixed order (all requests, then all offers) so the stamping is
/// independent of how the workload generator consumed its own stream.
void stamp_locations(auction::MarketSnapshot& snapshot, const ShardRouterConfig& box,
                     double located_fraction, Rng& rng) {
  const auto stamp = [&](std::optional<auction::Location>& location) {
    if (!rng.bernoulli(located_fraction)) return;
    location = auction::Location{rng.uniform(box.x0, box.x1), rng.uniform(box.y0, box.y1)};
  };
  for (auto& r : snapshot.requests) stamp(r.location);
  for (auto& o : snapshot.offers) stamp(o.location);
}

}  // namespace

TraceStream make_trace_stream(const TraceDriverConfig& config,
                              const EngineConfig& engine_config) {
  DECLOUD_EXPECTS(config.located_fraction >= 0.0 && config.located_fraction <= 1.0);

  TraceStream stream;
  Rng rng(config.seed);
  stream.snapshot =
      trace::make_workload(config.workload, engine_config.market.consensus.auction, rng);
  Rng location_rng(config.seed ^ 0x6c6f636174696f6eULL);  // "location"
  stamp_locations(stream.snapshot, engine_config.router, config.located_fraction, location_rng);

  // Interleave requests and offers by index so every epoch's batch carries
  // both sides of the market: 0, n_req, 1, n_req+1, … — alternating while
  // both last, computed without randomness so the stream is reproducible.
  const std::size_t n_req = stream.snapshot.requests.size();
  const std::size_t n_off = stream.snapshot.offers.size();
  stream.order.resize(n_req + n_off);
  std::size_t w = 0;
  for (std::size_t i = 0; i < std::max(n_req, n_off); ++i) {
    if (i < n_req) stream.order[w++] = i;
    if (i < n_off) stream.order[w++] = n_req + i;
  }
  return stream;
}

}  // namespace decloud::engine
