// Protocol actors bound to network nodes: participants (clients/providers)
// and miners (one producer per round, the rest verifying).
#pragma once

#include <optional>
#include <vector>

#include "ledger/miner.hpp"
#include "ledger/participant.hpp"
#include "sim/network.hpp"

namespace decloud::sim {

/// A participant attached to the overlay.  Owns the wallet; queues bids to
/// submit at round start, reveals keys when a valid preamble arrives.
class ParticipantNode {
 public:
  ParticipantNode(NodeId id, Network& network, unsigned difficulty_bits, Rng& rng)
      : id_(id), network_(network), difficulty_bits_(difficulty_bits), wallet_(rng) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] ledger::Participant& wallet() { return wallet_; }

  /// Queues a request to be sealed and submitted at the next round start.
  void enqueue_request(const auction::Request& r) { requests_.push_back(r); }
  /// Queues an offer likewise.
  void enqueue_offer(const auction::Offer& o) { offers_.push_back(o); }

  /// Seals all queued bids and broadcasts them (the submission phase).
  void submit_queued(Rng& rng);

  /// Network message entry point.
  void on_message(NodeId from, const Message& message);

 private:
  NodeId id_;
  Network& network_;
  unsigned difficulty_bits_;
  ledger::Participant wallet_;
  std::vector<auction::Request> requests_;
  std::vector<auction::Offer> offers_;
};

/// A miner attached to the overlay.  All miners collect sealed bids and
/// key reveals; the one designated producer for the round mines and emits
/// the preamble/body, the others verify and vote.
class MinerNode {
 public:
  struct Timing {
    /// Simulated cost of one PoW hash attempt (ms); total mining time is
    /// attempts × this.
    double ms_per_hash = 0.01;
    /// How long the producer waits after the preamble for key reveals
    /// before computing the allocation.
    SimTime reveal_wait_ms = 500;
  };

  /// `miners` is the deployment's miner count, producer included: a node
  /// appends a block once LedgerProtocol::required_accepts(params.quorum,
  /// miners) accept votes (its own among them) are in.
  MinerNode(NodeId id, Network& network, ledger::ConsensusParams params, Timing timing,
            std::size_t miners);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const ledger::Blockchain& chain() const { return chain_; }
  [[nodiscard]] std::size_t mempool_size() const { return mempool_.size(); }

  /// Producer entry point: assembles and mines a preamble over the local
  /// mempool, then broadcasts it after the simulated PoW delay.
  void produce_block(Time wall_time);

  /// Network message entry point (all roles).
  void on_message(NodeId from, const Message& message);

  /// Votes observed for the in-flight block (producer side).
  [[nodiscard]] const std::vector<VoteMsg>& votes() const { return votes_; }
  /// The block finalized by the most recent round on this node, if any.
  [[nodiscard]] const std::optional<ledger::Block>& last_block() const { return last_block_; }

 private:
  void finalize_if_decided();

  NodeId id_;
  Network& network_;
  ledger::Miner miner_;
  Timing timing_;
  std::size_t required_accepts_;

  ledger::Blockchain chain_;
  std::vector<ledger::SealedBid> mempool_;

  // In-flight round state.
  std::optional<ledger::BlockPreamble> pending_preamble_;
  std::vector<ledger::KeyReveal> collected_reveals_;
  std::optional<ledger::BlockBody> pending_body_;
  std::vector<VoteMsg> votes_;
  std::optional<ledger::Block> last_block_;
  bool producing_ = false;
};

}  // namespace decloud::sim
