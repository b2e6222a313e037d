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
  return crypto::merkle_root(bid_digests(bids));
}

bool VerifiedBids::admit(const SealedBid& bid) {
  if (!verify_sealed_bid(bid)) return false;
  entries_.insert({bid.digest(), bid.signature});
  return true;
}

namespace {

/// validate_preamble's checks, with the bids' leaves and the Merkle root
/// over them already derived from `preamble`.
bool check_preamble(const BlockPreamble& preamble, std::span<const crypto::Digest> leaves,
                    const crypto::Digest& root, unsigned difficulty_bits,
                    const VerifiedBids* verified) {
  if (!crypto::verify_pow(preamble.header.bytes(), difficulty_bits, preamble.pow)) return false;
  // An odd Merkle level duplicates its last node, so [A, B, C] and
  // [A, B, C, C] share a root, PoW and block hash (CVE-2012-2459): refuse
  // a repeated leaf instead of decoding the bid twice.
  std::vector<crypto::Digest> sorted(leaves.begin(), leaves.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return false;
  if (root != preamble.header.bids_root) return false;
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
  const std::vector<crypto::Digest> leaves = bid_digests(preamble.sealed_bids);
  return check_preamble(preamble, leaves, crypto::merkle_root(leaves), difficulty_bits, verified);
}

bool validate_preamble(const RoundState& state, unsigned difficulty_bits,
                       const VerifiedBids* verified) {
  return check_preamble(state.preamble(), state.leaves(), state.root(), difficulty_bits, verified);
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
