#include "ledger/miner.hpp"

#include <span>
#include <unordered_map>

#include "common/ensure.hpp"
#include "ledger/codec.hpp"
#include "ledger/contract.hpp"
#include "obs/sink.hpp"

namespace decloud::ledger {

namespace {

/// Miner::open_block with the bids' digests already in hand:
/// leaves[i] is preamble.sealed_bids[i].digest().
OpenedBlock open_bids(const BlockPreamble& preamble, std::span<const crypto::Digest> leaves,
                      const std::vector<KeyReveal>& reveals,
                      const ReputationRegistry& reputation) {
  std::unordered_map<crypto::Digest, crypto::SymmetricKey, crypto::DigestHash> keys;
  for (const auto& kr : reveals) keys.emplace(kr.bid_digest, kr.key);

  OpenedBlock opened;
  for (std::size_t i = 0; i < preamble.sealed_bids.size(); ++i) {
    const SealedBid& bid = preamble.sealed_bids[i];
    const auto it = keys.find(leaves[i]);
    if (it == keys.end()) {
      opened.unopened.push_back(i);
      continue;
    }
    const auto plaintext = open_bid(bid, it->second);
    if (!plaintext) {
      opened.unopened.push_back(i);
      continue;
    }
    // A malformed plaintext (wrong key that happened to hit the right tag,
    // or a corrupt submission) or a signed bid the market boundary would
    // refuse (auction::validate) is contained here: the bid is skipped.
    // A request's reputation is the registry's score, never the value its
    // client sealed, so Offer::min_reputation gates consensus state.
    try {
      if (bid.kind == BidKind::kRequest) {
        auction::Request r = decode_request(*plaintext);
        r.reputation = reputation.score(r.client);
        auction::validate(r);
        opened.snapshot.requests.push_back(std::move(r));
        opened.request_source.push_back(i);
      } else {
        auction::Offer o = decode_offer(*plaintext);
        auction::validate(o);
        opened.snapshot.offers.push_back(std::move(o));
        opened.offer_source.push_back(i);
      }
    } catch (const precondition_error&) {
      opened.unopened.push_back(i);
    }
  }
  return opened;
}

}  // namespace

RoundState Miner::mine_preamble(std::vector<SealedBid> bids, const crypto::Digest& prev_hash,
                                std::uint64_t height, Time timestamp,
                                obs::MetricsSink* sink) const {
  obs::SpanScope span(sink, "pow");
  std::vector<crypto::Digest> leaves = bid_digests(bids);
  const crypto::Digest root = crypto::merkle_root(leaves);

  BlockPreamble preamble;
  preamble.header.height = height;
  preamble.header.prev_hash = prev_hash;
  preamble.header.timestamp = timestamp;
  preamble.header.bids_root = root;
  preamble.sealed_bids = std::move(bids);

  const auto solution = crypto::solve_pow(preamble.header.bytes(), params_.difficulty_bits);
  DECLOUD_ENSURES_MSG(solution.has_value(), "PoW search exhausted the nonce space");
  preamble.pow = *solution;
  span.add_work(solution->nonce + 1);  // attempts, not the winning nonce
  if (sink != nullptr) sink->metrics().counter("ledger.pow_attempts").add(solution->nonce + 1);
  return RoundState(std::move(preamble), std::move(leaves), root);
}

OpenedBlock Miner::open_block(const BlockPreamble& preamble, const std::vector<KeyReveal>& reveals,
                              const ReputationRegistry& reputation) {
  return open_bids(preamble, bid_digests(preamble.sealed_bids), reveals, reputation);
}

std::uint64_t Miner::allocation_seed(const BlockPreamble& preamble) {
  // Fold the block hash into the RNG seed; the hash is PoW-constrained and
  // fixed before keys are revealed, so no one can grind the randomization.
  return crypto::fold_digest(preamble.hash());
}

ProducedBody Miner::compute_body(const RoundState& state, const std::vector<KeyReveal>& reveals,
                                 const ReputationRegistry& reputation,
                                 obs::MetricsSink* sink) const {
  ProducedBody produced;
  produced.opened = open_bids(state.preamble(), state.leaves(), reveals, reputation);
  const OpenedBlock& opened = produced.opened;
  if (sink != nullptr) {
    sink->metrics().counter("ledger.bids_opened")
        .add(opened.request_source.size() + opened.offer_source.size());
    sink->metrics().counter("ledger.bids_unopened").add(opened.unopened.size());
  }
  const auction::DeCloudAuction mechanism(params_.auction);
  const auction::RoundResult result =
      mechanism.run(opened.snapshot, allocation_seed(state.preamble()), sink);

  produced.body.revealed_keys = reveals;
  produced.body.allocation = encode_allocation(result);
  return produced;
}

bool Miner::verify_body(const BlockPreamble& preamble, const BlockBody& body,
                        const ReputationRegistry& reputation,
                        const VerifiedBids* verified) const {
  if (!validate_preamble(preamble, params_.difficulty_bits, verified)) return false;
  const OpenedBlock opened = open_block(preamble, body.revealed_keys, reputation);
  const auction::DeCloudAuction mechanism(params_.auction);
  const auction::RoundResult replay = mechanism.run(opened.snapshot, allocation_seed(preamble));
  // Byte-exact comparison: the mechanism is deterministic, so any honest
  // producer yields exactly these bytes.
  return encode_allocation(replay) == body.allocation;
}

}  // namespace decloud::ledger
