#include "ledger/block.hpp"

#include "common/byte_buffer.hpp"

namespace decloud::ledger {

std::vector<std::uint8_t> BlockHeader::bytes() const {
  ByteWriter w;
  w.write_u64(height);
  w.write_bytes({prev_hash.data(), prev_hash.size()});
  w.write_i64(timestamp);
  w.write_bytes({bids_root.data(), bids_root.size()});
  return std::move(w).take();
}

crypto::Digest bids_merkle_root(const std::vector<SealedBid>& bids) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(bids.size());
  for (const auto& b : bids) leaves.push_back(b.digest());
  return crypto::MerkleTree(std::move(leaves)).root();
}

bool validate_preamble(const BlockPreamble& preamble, unsigned difficulty_bits) {
  const auto header_bytes = preamble.header.bytes();
  if (!crypto::verify_pow({header_bytes.data(), header_bytes.size()}, difficulty_bits,
                          preamble.pow)) {
    return false;
  }
  if (bids_merkle_root(preamble.sealed_bids) != preamble.header.bids_root) return false;
  for (const auto& bid : preamble.sealed_bids) {
    if (!verify_sealed_bid(bid)) return false;
  }
  return true;
}

void Blockchain::restore_checkpoint(std::uint64_t height, const crypto::Digest& tip_hash) {
  height_ = height;
  tip_ = tip_hash;
}

bool Blockchain::append(const Block& block, unsigned difficulty_bits) {
  if (block.preamble.header.height != height_) return false;
  if (block.preamble.header.prev_hash != tip_) return false;
  if (!validate_preamble(block.preamble, difficulty_bits)) return false;
  ++height_;
  tip_ = block.preamble.hash();
  return true;
}

}  // namespace decloud::ledger
