#include "engine/shard_router.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace decloud::engine {

ShardRouter::ShardRouter(ShardRouterConfig config) : config_(config) {
  DECLOUD_EXPECTS(config_.num_shards > 0);
  DECLOUD_EXPECTS(config_.x1 > config_.x0 && config_.y1 > config_.y0);
  // Near-square grid with at least one cell per shard.
  grid_x_ = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(config_.num_shards))));
  grid_y_ = (config_.num_shards + grid_x_ - 1) / grid_x_;
}

std::size_t ShardRouter::grid_shard(const auction::Location& loc) const {
  // Clamp onto the box so the mapping is total; the half-open upper edge
  // maps into the last cell.
  const double fx = std::clamp((loc.x - config_.x0) / (config_.x1 - config_.x0), 0.0, 1.0);
  const double fy = std::clamp((loc.y - config_.y0) / (config_.y1 - config_.y0), 0.0, 1.0);
  const std::size_t cx =
      std::min(static_cast<std::size_t>(fx * static_cast<double>(grid_x_)), grid_x_ - 1);
  const std::size_t cy =
      std::min(static_cast<std::size_t>(fy * static_cast<double>(grid_y_)), grid_y_ - 1);
  return (cy * grid_x_ + cx) % config_.num_shards;
}

Route ShardRouter::route(const std::optional<auction::Location>& location,
                         std::uint64_t id) const {
  if (location.has_value()) {
    DECLOUD_EXPECTS_MSG(std::isfinite(location->x) && std::isfinite(location->y),
                        "bid location must be finite to route deterministically");
    return {RouteKind::kGrid, grid_shard(*location)};
  }
  // SplitMix64 scrambles sequential ids into an even spread.
  return {RouteKind::kSpilled,
          static_cast<std::size_t>(SplitMix64(id).next() % config_.num_shards)};
}

void ShardRouter::annotate(obs::MetricsRegistry& metrics) const {
  metrics.gauge("router.grid_x").set(static_cast<double>(grid_x_));
  metrics.gauge("router.grid_y").set(static_cast<double>(grid_y_));
}

}  // namespace decloud::engine
