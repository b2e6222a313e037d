// The umbrella header must compile standalone and expose the whole API.
#include "decloud.hpp"

#include <gtest/gtest.h>

namespace decloud {
namespace {

TEST(Umbrella, ExposesTheFullApi) {
  // One symbol from every layer proves the header pulled everything in.
  const auction::AuctionConfig cfg;
  EXPECT_TRUE(cfg.truthful);
  EXPECT_EQ(auction::ResourceSchema::kCpu, 0u);
  EXPECT_EQ(trace::m5_family().size(), 4u);
  const ledger::ConsensusParams consensus;
  EXPECT_EQ(consensus.quorum, 1.0);
  const sim::LatencyConfig latency;
  EXPECT_EQ(latency.base_ms, 20);
  Rng rng(1);
  EXPECT_NE(rng.next_u64(), 0u);
}

}  // namespace
}  // namespace decloud
