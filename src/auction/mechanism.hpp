// The DeCloud double auction A — Algorithm 1 of the paper, end to end:
//
//   1. per-request best-offer ranking under the QoM heuristic (Eq. 18);
//   2. cluster formation (Algorithm 2);
//   3. per-cluster normalization and greedy tentative allocation with
//      break-even determination (Section IV-C);
//   4. mini-auction formation (Algorithm 3);
//   5. per-auction clearing price, trade reduction and verifiable
//      randomization (Algorithm 4, Eq. 19–20).
//
// The mechanism is deterministic given (snapshot, seed): the seed is the
// block evidence (e.g. the block hash), so every miner re-derives the exact
// same allocation when verifying a block (Section III-B).
//
// With config.truthful = false the same pipeline stops after step 3 and
// finalizes every tentative match — the paper's non-truthful greedy
// benchmark that upper-bounds welfare in Fig. 5a/5b.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/allocation.hpp"
#include "auction/config.hpp"
#include "auction/qom.hpp"

namespace decloud::obs {
class MetricsSink;
}

namespace decloud::auction {

/// Markets below this many requests always rank serially: spinning the
/// pool up costs more than the fan-out saves, and the result is identical
/// either way.
inline constexpr std::size_t kMinParallelRequests = 32;

/// The best-offer set best_r of a request, from first principles: collects
/// EVERY feasible positive-QoM offer, fully sorts by (q desc, submitted
/// asc, id asc) and keeps the prefix within config.best_offer_ratio of the
/// top match, capped at config.max_best_offers, as sorted offer indices.
/// Empty when nothing is feasible or no offer shares a resource type.
/// The test oracle for CandidateIndex, the one production path: every
/// index query must return exactly this set.
[[nodiscard]] std::vector<std::size_t> best_offers_reference(const Request& r,
                                                             const MarketSnapshot& snapshot,
                                                             const BlockScale& scale,
                                                             const AuctionConfig& config);

/// The auction mechanism.  Stateless apart from configuration; safe to
/// share across threads for concurrent independent rounds.
class DeCloudAuction {
 public:
  explicit DeCloudAuction(AuctionConfig config = {}) : config_(config) {}

  /// Runs one allocation round over a block's requests and offers.
  /// `seed` is the verifiable-randomization evidence (block hash).
  /// Validates every bid; throws precondition_error on malformed input.
  /// `sink`, when non-null, receives stage spans (score, cluster,
  /// miniauction, trade_reduction) and round counters; a null sink makes
  /// every hook a single pointer test (DESIGN.md §3e).  The sink NEVER
  /// influences the result — instrumented and bare runs are byte-identical.
  /// Best offers are ranked through a CandidateIndex built fresh for this
  /// snapshot, so a producer and every verifier re-executing the block run
  /// the same path.  The score span's work is the number of candidates the
  /// index scored.
  [[nodiscard]] RoundResult run(const MarketSnapshot& snapshot, std::uint64_t seed,
                                obs::MetricsSink* sink = nullptr) const;

  [[nodiscard]] const AuctionConfig& config() const { return config_; }

 private:
  AuctionConfig config_;
};

}  // namespace decloud::auction
