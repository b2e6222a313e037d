// Merkle root over block payloads.
//
// The block preamble commits to the set of sealed bids via a Merkle root
// over their digests (Section III-B).  The PoW covers the header and so the
// root: a miner cannot drop or inject a bid after solving it.
#pragma once

#include <span>

#include "crypto/sha256.hpp"

namespace decloud::crypto {

/// Hashes two digests into a parent node (domain-separated from leaves).
[[nodiscard]] Digest merkle_parent(const Digest& left, const Digest& right);

/// The Merkle root over pre-hashed leaves (hash your payloads first).  Odd
/// levels duplicate the last node, like Bitcoin.  No leaves give the
/// all-zero root.
[[nodiscard]] Digest merkle_root(std::span<const Digest> leaves);

}  // namespace decloud::crypto
