#include "ledger/challenge.hpp"

#include <algorithm>
#include <numeric>

#include "common/ensure.hpp"
#include "common/rng.hpp"

namespace decloud::ledger {

std::vector<std::size_t> sample_challengers(const BlockPreamble& preamble, std::size_t pool_size,
                                            std::size_t k) {
  std::vector<std::size_t> pool(pool_size);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  // Domain-separate from the allocation seed so the lottery and the
  // challenger sample are independent draws of the same evidence.
  Rng rng(Miner::allocation_seed(preamble) ^ 0x7275654269744c4cULL);
  rng.shuffle(pool);
  pool.resize(std::min(k, pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

ChallengeOutcome run_challenge_game(const BlockPreamble& preamble, const BlockBody& body,
                                    const ConsensusParams& params, std::size_t pool_size,
                                    const ChallengeConfig& config) {
  DECLOUD_EXPECTS(config.challenger_reward_share >= 0.0 &&
                  config.challenger_reward_share <= 1.0);
  ChallengeOutcome outcome;
  outcome.challengers = sample_challengers(preamble, pool_size, config.num_challengers);
  outcome.challenger_deltas.assign(outcome.challengers.size(), 0.0);

  const Miner challenger(params);
  for (std::size_t i = 0; i < outcome.challengers.size(); ++i) {
    // Each sampled challenger re-executes the allocation on its own.
    const bool body_ok = challenger.verify_body(preamble, body);
    if (!body_ok && !outcome.fraud_proven) {
      // First proven mismatch wins the reward; the proof is the replay
      // itself, checkable by everyone (determinism).
      outcome.fraud_proven = true;
      outcome.winner = i;
      outcome.producer_delta = -config.producer_deposit;
      outcome.challenger_deltas[i] =
          config.challenger_reward_share * config.producer_deposit;
    } else if (!body_ok) {
      // Later challengers confirming the fraud neither gain nor lose.
    }
    // A challenger that finds the body CORRECT simply keeps its deposit —
    // in full TrueBit it would lose it only for submitting a *false*
    // challenge, which an honest verifier never does.
  }
  return outcome;
}

}  // namespace decloud::ledger
