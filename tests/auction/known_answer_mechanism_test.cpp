// Known-answer pin for the mechanism's allocation bytes: the SHA-256 of
// round_result_json for one seeded make_workload snapshot, at ranking
// fan-out threads 1 and 4.  The auction's other byte oracles are relative
// (threads 1 vs N, CandidateIndex vs best_offers_reference); this value is
// a fixed constant, so a change to ranking, clustering, pricing, trade
// reduction or the lottery that shifts every run alike fails here.  The
// snapshot is large enough that the round both reduces trades and draws
// lottery clusters, so every Algorithm 4 branch feeds the digest.
#include <gtest/gtest.h>

#include <string>

#include "auction/allocation.hpp"
#include "auction/mechanism.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "trace/workload.hpp"

namespace decloud::auction {
namespace {

constexpr const char* kRoundSha =
    "fa2be4b894ffba185639c79a71565f7bf9ace7aa1e6c763abc27cda349bbc6ee";

// The workload of CI's round_dump thread-invariance step
// (--requests 2000 --offers 1000 --seed 7 --round-seed 1).
TEST(KnownAnswer, MechanismRound) {
  trace::WorkloadConfig wc;
  wc.num_requests = 2000;
  wc.num_offers = 1000;
  Rng rng(7);
  const MarketSnapshot snapshot = trace::make_workload(wc, AuctionConfig{}, rng);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    AuctionConfig config;
    config.threads = threads;
    const RoundResult result = DeCloudAuction(config).run(snapshot, /*seed=*/1);
    EXPECT_GT(result.lottery_clusters, 0u);
    EXPECT_GT(result.reduced_trades, 0u);
    const crypto::Digest d = crypto::Sha256::hash(round_result_json(result));
    EXPECT_EQ(to_hex({d.data(), d.size()}), kRoundSha) << "threads " << threads;
  }
}

}  // namespace
}  // namespace decloud::auction
