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

crypto::Digest bids_merkle_root(const std::vector<SealedBid>& bids) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(bids.size());
  for (const auto& b : bids) leaves.push_back(b.digest());
  return crypto::MerkleTree(std::move(leaves)).root();
}

bool VerifiedBids::admit(const SealedBid& bid) {
  if (!verify_sealed_bid(bid)) return false;
  entries_.insert({bid.digest(), bid.signature});
  return true;
}

bool validate_preamble(const BlockPreamble& preamble, unsigned difficulty_bits,
                       const VerifiedBids* verified) {
  if (!crypto::verify_pow(preamble.header.bytes(), difficulty_bits, preamble.pow)) return false;
  std::vector<crypto::Digest> leaves;
  leaves.reserve(preamble.sealed_bids.size());
  for (const auto& bid : preamble.sealed_bids) leaves.push_back(bid.digest());
  // An odd Merkle level duplicates its last node, so [A, B, C] and
  // [A, B, C, C] share a root, PoW and block hash (CVE-2012-2459): refuse
  // a repeated leaf instead of decoding the bid twice.
  std::vector<crypto::Digest> sorted = leaves;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return false;
  if (crypto::MerkleTree(leaves).root() != preamble.header.bids_root) return false;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const SealedBid& bid = preamble.sealed_bids[i];
    if (verified != nullptr && verified->contains(leaves[i], bid.signature)) continue;
    if (!verify_sealed_bid(bid)) return false;
  }
  return true;
}

bool Blockchain::append(const Block& block, unsigned difficulty_bits,
                        const VerifiedBids* verified) {
  if (block.preamble.header.height != height_) return false;
  if (block.preamble.header.prev_hash != tip_) return false;
  if (!validate_preamble(block.preamble, difficulty_bits, verified)) return false;
  ++height_;
  tip_ = block.preamble.hash();
  return true;
}

}  // namespace decloud::ledger
