// TrueBit-style challenge game — the verifier's-dilemma mitigation the
// paper points to in Section VI.
//
// Re-running every allocation on every miner does not scale and gives
// miners no direct incentive to verify ("the verifier's dilemma").
// TrueBit's answer, which the paper plans to incorporate, replaces
// collective verification with *sampled challengers*: a pseudo-random
// subset of miners (drawn from the block hash, so the producer cannot
// grind the selection) re-runs the allocation; a challenger that proves a
// mismatch collects a reward funded by slashing the producer's deposit,
// while false challenges forfeit the challenger's own deposit.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "ledger/miner.hpp"

namespace decloud::ledger {

/// Economic parameters of the game.
struct ChallengeConfig {
  /// Challengers sampled per block (capped at the verifier pool size).
  std::size_t num_challengers = 2;
  /// Deposit the producer stakes per block; slashed on proven fraud.
  Money producer_deposit = 10.0;
  /// Deposit each challenger stakes; forfeited on a false challenge.
  Money challenger_deposit = 1.0;
  /// Share of the slashed producer deposit awarded to the successful
  /// challenger (the remainder is burned, removing collusion incentives).
  double challenger_reward_share = 0.5;
};

/// Outcome of the game for one block.
struct ChallengeOutcome {
  /// Indices (into the verifier pool, 0 … pool_size − 1) of the sampled
  /// challengers.
  std::vector<std::size_t> challengers;
  /// True when some challenger proved the body wrong.
  bool fraud_proven = false;
  /// Index of the first successful challenger (valid iff fraud_proven).
  std::size_t winner = 0;
  /// Producer balance delta (negative on slash).
  Money producer_delta = 0.0;
  /// Per-challenger balance deltas, aligned with `challengers`.
  std::vector<Money> challenger_deltas;
  /// Whether the block should be accepted onto the chain.
  [[nodiscard]] bool block_accepted() const { return !fraud_proven; }
};

/// Runs the challenge game: samples challengers from a pool of
/// `pool_size` non-producer miners willing to stake, has each re-verify
/// the body under the deployment's consensus `params`, and settles
/// deposits.
[[nodiscard]] ChallengeOutcome run_challenge_game(const BlockPreamble& preamble,
                                                  const BlockBody& body,
                                                  const ConsensusParams& params,
                                                  std::size_t pool_size,
                                                  const ChallengeConfig& config);

/// Samples `k` distinct pool indices pseudo-randomly from the block hash
/// (exposed for tests; deterministic and producer-grind-resistant).
[[nodiscard]] std::vector<std::size_t> sample_challengers(const BlockPreamble& preamble,
                                                          std::size_t pool_size, std::size_t k);

}  // namespace decloud::ledger
