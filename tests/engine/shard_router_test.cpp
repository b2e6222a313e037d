#include "engine/shard_router.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/ensure.hpp"

namespace decloud::engine {
namespace {

auction::Request located_request(std::uint64_t id, double x, double y) {
  auction::Request r;
  r.id = RequestId(id);
  r.location = auction::Location{x, y};
  return r;
}

auction::Offer located_offer(std::uint64_t id, double x, double y) {
  auction::Offer o;
  o.id = OfferId(id);
  o.location = auction::Location{x, y};
  return o;
}

ShardRouterConfig grid_config(std::size_t shards) {
  ShardRouterConfig config;
  config.num_shards = shards;
  config.x0 = 0.0;
  config.x1 = 100.0;
  config.y0 = 0.0;
  config.y1 = 100.0;
  return config;
}

TEST(ShardRouter, RoutingIsStableAcrossCallsAndRouterInstances) {
  const ShardRouter a(grid_config(16));
  const ShardRouter b(grid_config(16));
  for (std::uint64_t id = 0; id < 64; ++id) {
    const auto r = located_request(id, static_cast<double>(id % 10) * 9.7,
                                   static_cast<double>(id % 7) * 13.1);
    const Route first = a.route(r);
    EXPECT_EQ(first.shard, a.route(r).shard) << "unstable across calls, id " << id;
    EXPECT_EQ(first.shard, b.route(r).shard) << "unstable across instances, id " << id;
  }
}

TEST(ShardRouter, RequestAndOfferAtSameLocationShareAShard) {
  const ShardRouter router(grid_config(9));
  for (double x : {5.0, 42.0, 77.7, 99.9}) {
    for (double y : {1.0, 50.0, 88.8}) {
      const Route rr = router.route(located_request(1, x, y));
      const Route ro = router.route(located_offer(2, x, y));
      EXPECT_EQ(rr.shard, ro.shard) << "(" << x << "," << y << ")";
    }
  }
}

TEST(ShardRouter, GridReachesEveryShard) {
  const std::size_t shards = 16;
  const ShardRouter router(grid_config(shards));
  std::set<std::size_t> seen;
  for (double x = 0.5; x < 100.0; x += 3.0) {
    for (double y = 0.5; y < 100.0; y += 3.0) {
      const Route route = router.route(located_request(1, x, y));
      ASSERT_LT(route.shard, shards);
      seen.insert(route.shard);
    }
  }
  EXPECT_EQ(seen.size(), shards);
}

TEST(ShardRouter, OutOfBoxCoordinatesClampOntoTheGrid) {
  const ShardRouter router(grid_config(4));
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {-50.0, -50.0}, {1e9, 1e9}, {-1.0, 200.0}, {200.0, -1.0}}) {
    const Route route = router.route(located_request(1, x, y));
    EXPECT_LT(route.shard, 4u);
    EXPECT_EQ(route.kind, RouteKind::kGrid);
  }
}

TEST(ShardRouter, SpilloverHashSpreadsLocationlessBidsStably) {
  const ShardRouter router(grid_config(8));
  std::set<std::size_t> seen;
  for (std::uint64_t id = 0; id < 256; ++id) {
    auction::Request r;
    r.id = RequestId(id);
    const Route route = router.route(r);
    EXPECT_EQ(route.kind, RouteKind::kSpilled);
    EXPECT_EQ(route.shard, router.route(r).shard);  // stable per id
    seen.insert(route.shard);
  }
  EXPECT_GT(seen.size(), 1u);  // the hash actually spreads
}

TEST(ShardRouter, ValidatesConfig) {
  ShardRouterConfig no_shards = grid_config(0);
  EXPECT_THROW(ShardRouter{no_shards}, precondition_error);
  ShardRouterConfig empty_box = grid_config(4);
  empty_box.x1 = empty_box.x0;
  EXPECT_THROW(ShardRouter{empty_box}, precondition_error);
}

}  // namespace
}  // namespace decloud::engine
