// Miner logic — both roles of Section III: the block producer (assemble,
// mine PoW, decrypt after key reveal, compute the allocation) and the
// verifier (validate the preamble, re-run the deterministic auction and
// compare against the suggested allocation).
#pragma once

#include <vector>

#include "auction/config.hpp"
#include "auction/mechanism.hpp"
#include "ledger/block.hpp"

namespace decloud::ledger {

class ReputationRegistry;

/// Shared consensus parameters every miner must agree on.
struct ConsensusParams {
  /// Leading zero bits required of the block hash.  Simulation-scale.
  unsigned difficulty_bits = 12;
  /// The auction configuration is part of consensus: a divergent config
  /// yields divergent allocations and the block is rejected.
  auction::AuctionConfig auction;
  /// Fraction of verifier votes required to accept a block, in (0, 1].
  /// 1.0 keeps the historical unanimity rule; 2.0/3.0 tolerates a
  /// dishonest minority (LedgerProtocol::required_accepts rounds up).
  double quorum = 1.0;
  /// Re-mine attempts a producer gets after a rejected block, each with
  /// the faulty inputs (unopened bids) excluded.  0 = reject outright.
  std::size_t max_remine_attempts = 0;
};

/// The bids of a block decrypted into an auction snapshot, remembering
/// which sealed bid produced which row (for audits).
struct OpenedBlock {
  auction::MarketSnapshot snapshot;
  /// sealed-bid index (into preamble.sealed_bids) per snapshot request.
  std::vector<std::size_t> request_source;
  /// sealed-bid index per snapshot offer.
  std::vector<std::size_t> offer_source;
  /// Sealed bids for which no valid key was revealed (their owners stay
  /// out of this round and must resubmit).
  std::vector<std::size_t> unopened;
};

/// The producer's phase-2 output: the body it publishes and the opened
/// bids the body's allocation was computed over.
struct ProducedBody {
  BlockBody body;
  OpenedBlock opened;
};

class Miner {
 public:
  explicit Miner(ConsensusParams params) : params_(std::move(params)) {}

  [[nodiscard]] const ConsensusParams& params() const { return params_; }

  /// Phase 1: assembles a preamble over the given sealed bids on top of the
  /// current tip and solves PoW (the nonce search spans the whole 64-bit
  /// space; exhausting it is a broken invariant, not a result).  Each bid
  /// is hashed once; the returned state keeps those leaves and the Merkle
  /// root over them, which is bids_root.  A non-null `sink` records a "pow" span
  /// whose work counter is the number of PoW attempts; the sink never
  /// affects mining.
  [[nodiscard]] RoundState mine_preamble(std::vector<SealedBid> bids,
                                         const crypto::Digest& prev_hash, std::uint64_t height,
                                         Time timestamp, obs::MetricsSink* sink = nullptr) const;

  /// Phase 2 (producer): decrypts the mined bids with the revealed keys,
  /// looked up by the state's leaves, and runs the auction seeded by the
  /// block hash, producing the body and the opened bids it was computed
  /// over.  `reputation` stamps the opened requests as in open_block, and
  /// `sink` goes to the mechanism (stage spans + round counters).
  [[nodiscard]] ProducedBody compute_body(const RoundState& state,
                                          const std::vector<KeyReveal>& reveals,
                                          const ReputationRegistry& reputation,
                                          obs::MetricsSink* sink = nullptr) const;

  /// Phase 2 (verifier): re-derives the allocation from the preamble and
  /// revealed keys and accepts the body iff it matches byte-for-byte
  /// ("miners verify the accuracy of the allocation algorithm execution").
  /// `reputation` is forwarded to open_block and `verified` to
  /// validate_preamble; the bids are opened and the auction re-run either
  /// way.
  [[nodiscard]] bool verify_body(const BlockPreamble& preamble, const BlockBody& body,
                                 const ReputationRegistry& reputation,
                                 const VerifiedBids* verified = nullptr) const;

  /// Decrypts a preamble's bids with a key set, hashing each bid to find
  /// its key (the verifier's path; the producer's compute_body opens over
  /// the leaves it mined).  Bids with missing/wrong keys, malformed
  /// plaintext or values auction::validate refuses are skipped and reported
  /// in `unopened`, so one signed bad bid cannot halt the round.  Every
  /// opened request carries its client's score in `reputation`, so
  /// Offer::min_reputation gates consensus state, not the value a client
  /// sealed into its own bid.
  [[nodiscard]] static OpenedBlock open_block(const BlockPreamble& preamble,
                                              const std::vector<KeyReveal>& reveals,
                                              const ReputationRegistry& reputation);

  /// The verifiable-randomization seed derived from the block hash
  /// (fold_digest of it).
  [[nodiscard]] static std::uint64_t allocation_seed(const BlockPreamble& preamble);

 private:
  ConsensusParams params_;
};

}  // namespace decloud::ledger
