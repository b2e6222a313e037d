#include "ledger/challenge.hpp"

#include <gtest/gtest.h>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "ledger/participant.hpp"

namespace decloud::ledger {
namespace {

/// A mined block with a valid body, plus the verifier pool size.
struct Game {
  Rng rng{5};
  ConsensusParams params{.difficulty_bits = 8};
  Miner producer{params};
  Participant wallet{rng};
  BlockPreamble preamble;
  BlockBody body;
  std::size_t pool = 5;

  Game() {
    std::vector<SealedBid> bids;
    auction::Request r;
    r.id = RequestId(1);
    r.client = ClientId(1);
    r.resources.set(auction::ResourceSchema::kCpu, 1.0);
    r.window_end = 7200;
    r.duration = 3600;
    r.bid = 3.0;
    bids.push_back(wallet.submit_request(r, rng));
    auction::Offer o;
    o.id = OfferId(1);
    o.provider = ProviderId(1);
    o.resources.set(auction::ResourceSchema::kCpu, 4.0);
    o.window_end = 86400;
    o.bid = 0.1;
    bids.push_back(wallet.submit_offer(o, rng));

    preamble = producer.mine_preamble(std::move(bids), crypto::Digest{}, 0, 0);
    const auto reveals = wallet.on_preamble(preamble);
    body = producer.compute_body(preamble, reveals);
  }
};

TEST(SampleChallengers, DeterministicAndDistinct) {
  Game g;
  const auto a = sample_challengers(g.preamble, 5, 3);
  const auto b = sample_challengers(g.preamble, 5, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[1], a[2]);
  for (const std::size_t i : a) EXPECT_LT(i, 5u);
}

TEST(SampleChallengers, CappedAtPoolSize) {
  Game g;
  EXPECT_EQ(sample_challengers(g.preamble, 2, 10).size(), 2u);
  EXPECT_TRUE(sample_challengers(g.preamble, 0, 3).empty());
}

TEST(SampleChallengers, IndependentOfAllocationLottery) {
  // The challenger draw must be domain-separated from the allocation seed.
  Game g;
  const auto sample = sample_challengers(g.preamble, 100, 1);
  EXPECT_NE(sample[0], Miner::allocation_seed(g.preamble) % 100);
}

TEST(ChallengeGame, HonestBlockSurvives) {
  Game g;
  const ChallengeConfig cfg;
  const auto outcome = run_challenge_game(g.preamble, g.body, g.params, g.pool, cfg);
  EXPECT_FALSE(outcome.fraud_proven);
  EXPECT_TRUE(outcome.block_accepted());
  EXPECT_DOUBLE_EQ(outcome.producer_delta, 0.0);
  for (const Money d : outcome.challenger_deltas) EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_EQ(outcome.challengers.size(), cfg.num_challengers);
}

TEST(ChallengeGame, TamperedBodyIsSlashed) {
  Game g;
  BlockBody forged = g.body;
  forged.allocation.back() ^= 0x55;
  ChallengeConfig cfg;
  cfg.producer_deposit = 10.0;
  cfg.challenger_reward_share = 0.5;
  const auto outcome = run_challenge_game(g.preamble, forged, g.params, g.pool, cfg);
  ASSERT_TRUE(outcome.fraud_proven);
  EXPECT_FALSE(outcome.block_accepted());
  EXPECT_DOUBLE_EQ(outcome.producer_delta, -10.0);
  // Exactly the winner is rewarded, with the configured share.
  Money rewarded = 0.0;
  for (const Money d : outcome.challenger_deltas) rewarded += d;
  EXPECT_DOUBLE_EQ(rewarded, 5.0);
  EXPECT_DOUBLE_EQ(outcome.challenger_deltas[outcome.winner], 5.0);
}

TEST(ChallengeGame, NoChallengersMeansNoDetection) {
  // The security/efficiency dial: zero challengers never slashes — the
  // degenerate end of the TrueBit trade-off.
  Game g;
  BlockBody forged = g.body;
  forged.allocation.back() ^= 0x55;
  ChallengeConfig cfg;
  cfg.num_challengers = 0;
  const auto outcome = run_challenge_game(g.preamble, forged, g.params, g.pool, cfg);
  EXPECT_FALSE(outcome.fraud_proven);
  EXPECT_TRUE(outcome.block_accepted());  // fraud slips through, by design
}

TEST(ChallengeGame, RewardShareValidated) {
  Game g;
  ChallengeConfig cfg;
  cfg.challenger_reward_share = 1.5;
  EXPECT_THROW(run_challenge_game(g.preamble, g.body, g.params, g.pool, cfg), precondition_error);
}

}  // namespace
}  // namespace decloud::ledger
