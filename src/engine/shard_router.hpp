// Location-aware shard routing for the continuous market engine.
//
// A planet-scale DeCloud deployment cannot clear one global auction:
// proximity dominates QoM for edge workloads (Section II), so bids
// naturally partition by the ℓ_r / ℓ_o coordinates the bidding language
// already carries (Eqs. 1–2).  The router maps every bid to exactly one
// shard — an independent regional market — by one rule:
//
//   * a located bid falls into a cell of a near-square uniform grid over
//     the configured bounding box (coordinates outside the box are
//     clamped onto its edge, so the grid is total);
//   * a location-less bid spills over by its id: SplitMix64(id) modulo
//     the shard count — load-spreading and stable per id.
//
// Routing is a pure function of (config, location, id) — stable across
// calls, threads, and processes — which the engine's determinism contract
// builds on.
#pragma once

#include <cstdint>
#include <optional>

#include "auction/bid.hpp"

namespace decloud::obs {
class MetricsRegistry;
}

namespace decloud::engine {

struct ShardRouterConfig {
  /// Number of independent regional markets.
  std::size_t num_shards = 1;
  /// Bounding box of the grid: [x0,x1)×[y0,y1).  The grid has
  /// ceil(sqrt(num_shards)) columns and enough rows for one cell per shard.
  double x0 = 0.0, x1 = 1.0;
  double y0 = 0.0, y1 = 1.0;
};

/// How a routing decision was reached — the engine surfaces this in its
/// shard counters (`bids_spilled`).
enum class RouteKind : std::uint8_t {
  kGrid,     ///< located via the grid
  kSpilled,  ///< location-less, placed by the id hash
};

struct Route {
  RouteKind kind = RouteKind::kGrid;
  std::size_t shard = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterConfig config);

  [[nodiscard]] std::size_t num_shards() const { return config_.num_shards; }
  [[nodiscard]] const ShardRouterConfig& config() const { return config_; }

  /// Routes by (optional) location and bid id — the common core.
  [[nodiscard]] Route route(const std::optional<auction::Location>& location,
                            std::uint64_t id) const;

  [[nodiscard]] Route route(const auction::Request& r) const {
    return route(r.location, r.id.value());
  }
  [[nodiscard]] Route route(const auction::Offer& o) const {
    return route(o.location, o.id.value());
  }

  /// Records the resolved grid shape as gauges (router.grid_x/grid_y) —
  /// static facts a dashboard needs next to the per-shard counters; the
  /// shard count is engine.num_shards.
  void annotate(obs::MetricsRegistry& metrics) const;

 private:
  [[nodiscard]] std::size_t grid_shard(const auction::Location& loc) const;

  ShardRouterConfig config_;
  std::size_t grid_x_;  // derived grid dimensions
  std::size_t grid_y_;
};

}  // namespace decloud::engine
