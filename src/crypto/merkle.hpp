// Merkle tree over block payloads.
//
// The block preamble commits to the set of sealed bids via a Merkle root so
// that miners can later prove inclusion/exclusion of individual bids (the
// "did the miner exclude anyone?" check of Section III-B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace decloud::crypto {

/// One step of a Merkle inclusion proof: the sibling digest and which side
/// it sits on.
struct MerkleProofStep {
  Digest sibling;
  bool sibling_is_left = false;
};

/// An inclusion proof from a leaf to the root.
using MerkleProof = std::vector<MerkleProofStep>;

/// Immutable Merkle tree built over pre-hashed leaves.  Leaves are digests
/// (hash your payloads first).  Odd levels duplicate the last node, like
/// Bitcoin.  An empty tree has the all-zero root.
class MerkleTree {
 public:
  explicit MerkleTree(std::vector<Digest> leaves);

  [[nodiscard]] const Digest& root() const { return root_; }
  [[nodiscard]] std::size_t leaf_count() const { return leaf_count_; }
  /// The leaves the tree was built over, in order.
  [[nodiscard]] std::span<const Digest> leaves() const {
    return levels_.empty() ? std::span<const Digest>{} : std::span<const Digest>(levels_.front());
  }

  /// Builds an inclusion proof for the leaf at `index`.
  [[nodiscard]] MerkleProof prove(std::size_t index) const;

  /// Verifies an inclusion proof against a root.
  [[nodiscard]] static bool verify(const Digest& leaf, const MerkleProof& proof,
                                   const Digest& root);

 private:
  // levels_[0] is the leaf level; levels_.back() has a single root node.
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
  std::size_t leaf_count_ = 0;
};

/// Hashes two digests into a parent node (domain-separated from leaves).
[[nodiscard]] Digest merkle_parent(const Digest& left, const Digest& right);

}  // namespace decloud::crypto
