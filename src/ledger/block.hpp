// Blocks and the blockchain — Section II-A / III of the paper.
//
// A DeCloud block is split in two parts matching the two protocol phases:
//
//   * the *preamble* — previous-block reference, PoW solution and the
//     sealed (still encrypted) bids.  Broadcast as soon as PoW is solved;
//   * the *body* — the set of revealed temporary keys plus the miner's
//     allocation suggestion.  Broadcast after key disclosure; other miners
//     verify it by replaying the (deterministic) auction.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "auction/allocation.hpp"
#include "common/types.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "ledger/sealed_bid.hpp"

namespace decloud::ledger {

/// Fixed part of the block committing to its content.
struct BlockHeader {
  std::uint64_t height = 0;
  crypto::Digest prev_hash{};
  Time timestamp = 0;
  /// Merkle root over the sealed-bid digests — lets anyone audit that the
  /// miner neither dropped nor injected bids after PoW.
  crypto::Digest bids_root{};

  /// u64 height ‖ u32-length-prefixed prev_hash ‖ i64 timestamp ‖
  /// u32-length-prefixed bids_root.
  static constexpr std::size_t kBytes = 8 + 4 + 32 + 8 + 4 + 32;

  /// Canonical bytes of the header (the PoW pre-image), on the stack.
  [[nodiscard]] std::array<std::uint8_t, kBytes> bytes() const;
};

/// Phase-1 output: header + PoW + sealed bids.
struct BlockPreamble {
  BlockHeader header;
  crypto::PowSolution pow;
  std::vector<SealedBid> sealed_bids;

  /// The block hash — the PoW digest of the header.  Doubles as the
  /// verifiable-randomization evidence for the allocation.
  [[nodiscard]] const crypto::Digest& hash() const { return pow.digest; }
};

/// Phase-2 output: revealed keys + allocation suggestion.
struct BlockBody {
  std::vector<KeyReveal> revealed_keys;
  /// Canonical encoding of the miner's allocation suggestion
  /// (ledger::encode_allocation).
  std::vector<std::uint8_t> allocation;
};

/// A complete block.
struct Block {
  BlockPreamble preamble;
  BlockBody body;
};

/// The Merkle leaves of `bids`: each one's digest, in order.
[[nodiscard]] std::vector<crypto::Digest> bid_digests(const std::vector<SealedBid>& bids);

/// Computes the Merkle root over sealed-bid digests (all-zero for none).
[[nodiscard]] crypto::Digest bids_merkle_root(const std::vector<SealedBid>& bids);

/// The sealed bids whose signatures one protocol round has already
/// checked, keyed by (digest, signature).  `admit` is the only way in, so
/// every entry is a signature that verified.  `crypto::verify` is a pure
/// function of (payload, key, signature) and the digest binds the payload
/// and the sender's key, so a bid whose (digest, signature) is present
/// needs no second check; a tampered or re-signed bid misses and is
/// checked in full.  Scope it to one round (DESIGN.md §3b).
class VerifiedBids {
 public:
  /// Verifies `bid`'s signature and records it on success.
  bool admit(const SealedBid& bid);

  [[nodiscard]] bool contains(const crypto::Digest& digest,
                              const crypto::Signature& signature) const {
    return entries_.contains({digest, signature});
  }

 private:
  struct Entry {
    crypto::Digest digest;
    crypto::Signature signature;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  struct EntryHash {
    std::size_t operator()(const Entry& e) const noexcept {
      return crypto::DigestHash{}(e.digest) ^ e.signature.r;
    }
  };
  std::unordered_set<Entry, EntryHash> entries_;
};

/// What a producer derives from its sealed bids in one mining attempt: the
/// mined preamble, each bid's digest (hashed once, in bid order) and the
/// Merkle root over those leaves, which is the header's bids_root.  Only
/// Miner::mine_preamble builds one, and the preamble is read-only from then
/// on, so the leaves are always the digests of the preamble's own bytes; a
/// re-mine builds a fresh state.  The producer's own checks read it instead
/// of re-hashing.  Verifiers never see it: they derive everything from the
/// bytes (DESIGN.md §3b).
class RoundState {
 public:
  [[nodiscard]] const BlockPreamble& preamble() const { return preamble_; }
  /// The sealed bids' digests, leaves()[i] of preamble().sealed_bids[i].
  [[nodiscard]] std::span<const crypto::Digest> leaves() const { return leaves_; }
  /// merkle_root(leaves()), computed once when the preamble was mined.
  [[nodiscard]] const crypto::Digest& root() const { return root_; }
  /// Hands the preamble to the block being appended; the state is spent.
  [[nodiscard]] BlockPreamble take_preamble() && { return std::move(preamble_); }

 private:
  friend class Miner;
  RoundState(BlockPreamble preamble, std::vector<crypto::Digest> leaves, const crypto::Digest& root)
      : preamble_(std::move(preamble)), leaves_(std::move(leaves)), root_(root) {}

  BlockPreamble preamble_;
  std::vector<crypto::Digest> leaves_;
  crypto::Digest root_;
};

/// Validates a preamble: PoW meets `difficulty_bits` over the header bytes,
/// no two carried bids share a digest, the Merkle root matches the carried
/// bids, and every sealed bid's signature verifies.  A bid found in
/// `verified` (non-null) counts as verified without a second check.
[[nodiscard]] bool validate_preamble(const BlockPreamble& preamble, unsigned difficulty_bits,
                                     const VerifiedBids* verified = nullptr);
/// The same checks on a producer's own mining attempt, over the leaves and
/// root it already holds.
[[nodiscard]] bool validate_preamble(const RoundState& state, unsigned difficulty_bits,
                                     const VerifiedBids* verified = nullptr);

/// An append-only chain that keeps only its height and tip hash.  The tip
/// commits to every earlier block through prev_hash, and nothing the
/// protocol reads going forward — height(), tip_hash(), linkage checks on
/// append() — needs the old block bodies, so none are retained.
class Blockchain {
 public:
  /// Hash of the latest block (all-zero before any block exists).
  [[nodiscard]] const crypto::Digest& tip_hash() const { return tip_; }
  [[nodiscard]] std::uint64_t height() const { return height_; }

  /// Appends the block of a mining attempt after checking linkage
  /// (prev_hash/height) and its preamble against the attempt's state
  /// (validate_preamble(state, …), consulting `verified`).  Returns false
  /// (and leaves the chain untouched) on any mismatch.
  bool append(const RoundState& state, unsigned difficulty_bits,
              const VerifiedBids* verified = nullptr);

 private:
  std::uint64_t height_ = 0;
  crypto::Digest tip_{};
};

}  // namespace decloud::ledger
