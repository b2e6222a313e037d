#include "ledger/block.hpp"

#include <algorithm>

#include "common/byte_buffer.hpp"

namespace decloud::ledger {

std::array<std::uint8_t, BlockHeader::kBytes> BlockHeader::bytes() const {
  FixedWriter<kBytes> w;
  w.write_u64(height);
  w.write_bytes(prev_hash);
  w.write_i64(timestamp);
  w.write_bytes(bids_root);
  return w.bytes();
}

std::vector<crypto::Digest> bid_digests(const std::vector<SealedBid>& bids) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(bids.size());
  for (const auto& b : bids) leaves.push_back(b.digest());
  return leaves;
}

crypto::Digest bids_merkle_root(const std::vector<SealedBid>& bids) {
  return crypto::MerkleTree(bid_digests(bids)).root();
}

bool VerifiedBids::admit(const SealedBid& bid) {
  if (!verify_sealed_bid(bid)) return false;
  entries_.insert({bid.digest(), bid.signature});
  return true;
}

namespace {

/// validate_preamble's checks, with the bids' leaves and the tree over
/// them already derived from `preamble`.
bool check_preamble(const BlockPreamble& preamble, const crypto::MerkleTree& tree,
                    unsigned difficulty_bits, const VerifiedBids* verified) {
  if (!crypto::verify_pow(preamble.header.bytes(), difficulty_bits, preamble.pow)) return false;
  const std::span<const crypto::Digest> leaves = tree.leaves();
  // An odd Merkle level duplicates its last node, so [A, B, C] and
  // [A, B, C, C] share a root, PoW and block hash (CVE-2012-2459): refuse
  // a repeated leaf instead of decoding the bid twice.
  std::vector<crypto::Digest> sorted(leaves.begin(), leaves.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return false;
  if (tree.root() != preamble.header.bids_root) return false;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const SealedBid& bid = preamble.sealed_bids[i];
    if (verified != nullptr && verified->contains(leaves[i], bid.signature)) continue;
    if (!verify_sealed_bid(bid)) return false;
  }
  return true;
}

}  // namespace

bool validate_preamble(const BlockPreamble& preamble, unsigned difficulty_bits,
                       const VerifiedBids* verified) {
  return check_preamble(preamble, crypto::MerkleTree(bid_digests(preamble.sealed_bids)),
                        difficulty_bits, verified);
}

bool validate_preamble(const RoundState& state, unsigned difficulty_bits,
                       const VerifiedBids* verified) {
  return check_preamble(state.preamble(), state.tree(), difficulty_bits, verified);
}

bool Blockchain::append(const RoundState& state, unsigned difficulty_bits,
                        const VerifiedBids* verified) {
  const BlockHeader& header = state.preamble().header;
  if (header.height != height_) return false;
  if (header.prev_hash != tip_) return false;
  if (!validate_preamble(state, difficulty_bits, verified)) return false;
  ++height_;
  tip_ = state.preamble().hash();
  return true;
}

}  // namespace decloud::ledger
