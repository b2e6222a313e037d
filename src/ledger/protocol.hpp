// In-process orchestration of the two-phase bid exposure protocol
// (Fig. 2 of the paper), without a network between the parties.  This
// class is the one driver of the protocol's steps; every engine, stream
// and example round runs through it:
//
//   1. participants seal bids and submit them to the mempool;
//   2. miner A assembles a preamble over the pooled bids and solves PoW;
//   3. participants validate the preamble and broadcast temporary keys for
//      their included bids;
//   4. miner A decrypts, runs the auction seeded by the block hash, and
//      publishes the body (keys + allocation suggestion);
//   5. the other miners re-run the auction and accept or reject the block;
//   6. on acceptance the block is appended and agreements are registered
//      with the smart contract; clients then accept/deny their matches.
//
// The round degrades gracefully instead of assuming honesty: sealed bids
// with bad signatures are dropped before mining, withheld key reveals
// exclude only the affected bids (and cost their sender reputation),
// acceptance needs a configurable vote quorum rather than unanimity, and a
// rejected block triggers a penalized, bounded re-mine with the faulty
// inputs excluded.  A fault::FaultInjector drives the misbehaviour
// deterministically; without one the round is the pure happy path.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "ledger/contract.hpp"
#include "ledger/hooks.hpp"
#include "ledger/miner.hpp"
#include "ledger/participant.hpp"

namespace decloud::ledger {

/// Fault and recovery bookkeeping of one round (all zero on the happy
/// path).  Everything here feeds outcome_json(), so chaos runs can be
/// byte-compared like clean ones.
struct RoundFaultReport {
  /// Sealed bids dropped before mining because their signature failed.
  std::size_t bids_invalid_dropped = 0;
  /// Participants that withheld their key reveal (injected byzantine).
  std::size_t reveals_withheld = 0;
  /// Sealed bids excluded from the final attempt for missing/bad keys.
  std::size_t bids_unopened = 0;
  /// Verifier votes inverted by the fault injector.
  std::size_t dishonest_votes = 0;
  /// Re-mine attempts performed after a rejected block.
  std::size_t remine_attempts = 0;
  /// The producer published a corrupted allocation body (injected).
  bool allocation_corrupted = false;
  /// The producer was penalized for a rejected block this round.
  bool producer_penalized = false;
  /// Ledger addresses debited for withholding, in charge order.
  std::vector<ClientId> penalized;
};

/// The outcome of one protocol round.
struct RoundOutcome {
  bool block_accepted = false;
  /// Votes of the verifier miners (true = accept), verifier v at index v
  /// of run_round's count; from the LAST attempt of the round.
  std::vector<bool> verifier_votes;
  /// The mined block (valid only when block_accepted).
  Block block;
  /// The decrypted market snapshot of the round.
  auction::MarketSnapshot snapshot;
  /// The decoded allocation.
  auction::RoundResult result;
  /// Contract ids created for the matches.
  std::vector<ContractId> agreements;
  /// What went wrong and how the round recovered.
  RoundFaultReport fault;
};

/// Canonical serialization of a round outcome: every vote, match, payment
/// (%.17g) and fault counter.  Two rounds with byte-equal JSON went the
/// same way — the string the chaos determinism tests compare.
[[nodiscard]] std::string outcome_json(const RoundOutcome& outcome);

/// The on-ledger address of a long-term key: its fingerprint folded into a
/// ClientId (crypto::fold_digest).  Lets the contract penalize the
/// sender of a bid that never opened (its plaintext identity is unknown by
/// construction — the ciphertext never decrypted).
[[nodiscard]] ClientId ledger_address(const crypto::PublicKey& sender);

/// A mempool of sealed bids awaiting inclusion.  Duplicate sealed-bid ids
/// (by digest) are refused at submission — a double-submitted bid would
/// otherwise be double-included in the preamble.
class Mempool {
 public:
  enum class Admission : std::uint8_t { kAccepted, kDuplicate };

  /// Admits `bid` unless an identical one (same digest) is already
  /// pooled.  Draining forgets the digests: a bid may resubmit in a later
  /// round, it just cannot appear twice in one preamble.
  Admission submit(SealedBid bid);
  [[nodiscard]] std::size_t size() const { return pool_.size(); }
  /// Drains every pooled bid, in submission order.
  [[nodiscard]] std::vector<SealedBid> drain();

 private:
  std::vector<SealedBid> pool_;
  // Digests of the pooled bids.  Membership checks only — never iterated
  // (iteration order of an unordered container is not deterministic).
  std::unordered_set<crypto::Digest, crypto::DigestHash> digests_;
};

/// Reference protocol driver: one producer miner, any number of verifier
/// miners, a shared blockchain and agreement contract.  Every miner runs
/// under the protocol's one ConsensusParams (Section III), so a verifier
/// is just a count: each one re-executes the allocation on its own.
class LedgerProtocol {
 public:
  explicit LedgerProtocol(ConsensusParams params)
      : params_(std::move(params)), producer_(params_) {}

  [[nodiscard]] Mempool& mempool() { return mempool_; }
  [[nodiscard]] const Blockchain& chain() const { return chain_; }
  [[nodiscard]] AgreementContract& contract() { return contract_; }
  [[nodiscard]] const ConsensusParams& params() const { return params_; }

  /// Runs one full round: drains the mempool, drops invalid-signature
  /// bids, mines, collects key reveals from `participants` (non-revealing
  /// senders are penalized and their bids excluded), computes the
  /// allocation over requests stamped from the contract's reputation
  /// registry, has each of `verifiers` miners re-execute it and vote, and
  /// appends the block iff at least ⌈quorum · verifiers⌉ votes accept.
  /// On rejection the producer is penalized and the round re-mines up to
  /// ConsensusParams::max_remine_attempts times with the faulty inputs
  /// excluded.  Registration with the agreement contract happens on
  /// acceptance.  Every entry of `participants` must be non-null.
  RoundOutcome run_round(std::span<Participant* const> participants, std::size_t verifiers,
                         Time now);
  /// Brace-list convenience: run_round({&alice, &bob}, …).
  RoundOutcome run_round(std::initializer_list<Participant*> participants,
                         std::size_t verifiers, Time now) {
    return run_round(std::span<Participant* const>(participants.begin(), participants.size()),
                     verifiers, now);
  }

  /// Accepting votes required for `verifiers` voters under `quorum`
  /// (⌈quorum · verifiers⌉, computed with an epsilon so exact thirds do
  /// not round up).  Zero verifiers need zero votes (producer-only mode).
  [[nodiscard]] static std::size_t required_accepts(double quorum, std::size_t verifiers);

  /// Blocks this protocol's producer had rejected (each one a penalty —
  /// wasted PoW plus the mark against the miner).
  [[nodiscard]] std::size_t producer_penalties() const { return producer_penalties_; }

  /// Attaches the round's hooks (ledger/hooks.hpp).  With a sink, rounds
  /// record phase spans (pow, key_reveal, allocation, verify, append) and
  /// protocol counters; with a journal, block mined/rejected/re-mined,
  /// fault firings and reputation penalties, stamped with the chain
  /// height; with an injector, the plan's withhold/corrupt-allocation/
  /// dishonest-vote sites fire, namespaced by `hooks.shard` so every shard
  /// of an engine sees an independent slice of the same plan.
  void attach(const Hooks& hooks) { hooks_ = hooks; }

 private:
  ConsensusParams params_;
  Miner producer_;
  Mempool mempool_;
  Blockchain chain_;
  AgreementContract contract_;
  Hooks hooks_;
  std::size_t producer_penalties_ = 0;
};

}  // namespace decloud::ledger
