#include "sim/node.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "ledger/protocol.hpp"

namespace decloud::sim {

void ParticipantNode::submit_queued(Rng& rng) {
  for (const auto& r : requests_) {
    network_.broadcast(id_, SubmitBidMsg{wallet_.submit_request(r, rng)});
  }
  for (const auto& o : offers_) {
    network_.broadcast(id_, SubmitBidMsg{wallet_.submit_offer(o, rng)});
  }
  requests_.clear();
  offers_.clear();
}

void ParticipantNode::on_message(NodeId /*from*/, const Message& message) {
  // Participants only react to preambles: validate PoW, then broadcast the
  // temporary keys of any of our bids the preamble includes.
  if (const auto* pm = std::get_if<PreambleMsg>(&message)) {
    if (!ledger::validate_preamble(pm->preamble, difficulty_bits_)) return;
    auto reveals = wallet_.on_preamble(pm->preamble);
    if (!reveals.empty()) {
      network_.broadcast(id_, KeyRevealMsg{std::move(reveals)});
    }
  }
}

MinerNode::MinerNode(NodeId id, Network& network, ledger::ConsensusParams params, Timing timing,
                     std::size_t miners)
    : id_(id),
      network_(network),
      miner_(std::move(params)),
      timing_(timing),
      required_accepts_(ledger::LedgerProtocol::required_accepts(miner_.params().quorum, miners)) {}

void MinerNode::produce_block(Time wall_time) {
  DECLOUD_EXPECTS_MSG(!producing_, "round already in flight");
  producing_ = true;
  pending_preamble_.reset();
  collected_reveals_.clear();
  pending_body_.reset();
  votes_.clear();
  last_block_.reset();

  auto bids = std::move(mempool_);
  mempool_.clear();
  ledger::BlockPreamble preamble =
      miner_.mine_preamble(std::move(bids), chain_.tip_hash(), chain_.height(), wall_time);

  // Simulated mining delay: (nonce + 1) attempts at ms_per_hash each.
  const auto mine_ms =
      static_cast<SimTime>(static_cast<double>(preamble.pow.nonce + 1) * timing_.ms_per_hash);
  pending_preamble_ = std::move(preamble);

  network_.queue().schedule_in(mine_ms, [this] {
    network_.broadcast(id_, PreambleMsg{*pending_preamble_});
    // Allow reveal_wait for the key disclosures, then compute the body.
    network_.queue().schedule_in(timing_.reveal_wait_ms, [this] {
      // The overlay has no agreement contract, so no reputation registry:
      // producer and verifiers alike rank requests by the reputation
      // decoded from the sealed bid (LedgerProtocol stamps the registry's).
      pending_body_ = miner_.compute_body(*pending_preamble_, collected_reveals_);
      // The producer trivially accepts its own block (and says so).
      const VoteMsg self{.height = pending_preamble_->header.height, .accept = true, .voter = id_};
      votes_.push_back(self);
      network_.broadcast(id_, BodyMsg{pending_preamble_->header.height, *pending_body_});
      network_.broadcast(id_, self);
      finalize_if_decided();
    });
  });
}

void MinerNode::on_message(NodeId /*from*/, const Message& message) {
  if (const auto* sb = std::get_if<SubmitBidMsg>(&message)) {
    // Admission control: reject bids with invalid signatures at the door.
    if (ledger::verify_sealed_bid(sb->bid)) mempool_.push_back(sb->bid);
    return;
  }
  if (const auto* pm = std::get_if<PreambleMsg>(&message)) {
    if (producing_) return;  // we built this round's preamble ourselves
    if (pm->preamble.header.height != chain_.height()) return;  // stale/future round
    if (!ledger::validate_preamble(pm->preamble, miner_.params().difficulty_bits)) return;
    // A fresh round begins for this verifier: drop the previous round's
    // in-flight state.
    pending_preamble_ = pm->preamble;
    pending_body_.reset();
    votes_.clear();
    last_block_.reset();
    return;
  }
  if (const auto* kr = std::get_if<KeyRevealMsg>(&message)) {
    collected_reveals_.insert(collected_reveals_.end(), kr->reveals.begin(), kr->reveals.end());
    return;
  }
  if (const auto* bm = std::get_if<BodyMsg>(&message)) {
    if (producing_ || !pending_preamble_) return;
    if (bm->height != pending_preamble_->header.height) return;
    pending_body_ = bm->body;
    const bool ok = miner_.verify_body(*pending_preamble_, bm->body);
    votes_.push_back({.height = bm->height, .accept = ok, .voter = id_});
    network_.broadcast(id_, VoteMsg{bm->height, ok, id_});
    finalize_if_decided();
    return;
  }
  if (const auto* vm = std::get_if<VoteMsg>(&message)) {
    if (!pending_preamble_ || vm->height != pending_preamble_->header.height) return;
    const bool seen = std::any_of(votes_.begin(), votes_.end(), [&](const VoteMsg& v) {
      return v.voter == vm->voter;
    });
    if (!seen) votes_.push_back(*vm);
    finalize_if_decided();
    return;
  }
}

void MinerNode::finalize_if_decided() {
  if (!pending_preamble_ || !pending_body_ || last_block_) return;
  // Finalize once the quorum of accept votes is in (at the default quorum
  // 1.0: every miner, so one reject sinks the block).  The driver
  // additionally checks cross-node chain agreement after the queue
  // drains, which is the authoritative tally.
  const auto accepts = static_cast<std::size_t>(
      std::count_if(votes_.begin(), votes_.end(), [](const VoteMsg& v) { return v.accept; }));
  if (accepts < required_accepts_) return;
  ledger::Block block{.preamble = *pending_preamble_, .body = *pending_body_};
  if (chain_.append(block, miner_.params().difficulty_bits)) {
    last_block_ = std::move(block);
    producing_ = false;
  }
}

}  // namespace decloud::sim
