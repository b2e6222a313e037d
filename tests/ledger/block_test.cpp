#include "ledger/block.hpp"

#include <gtest/gtest.h>

#include "common/byte_buffer.hpp"
#include "common/rng.hpp"
#include "ledger/codec.hpp"
#include "ledger/contract.hpp"
#include "ledger/miner.hpp"
#include "ledger/participant.hpp"

namespace decloud::ledger {
namespace {

constexpr unsigned kDifficulty = 8;

SealedBid make_bid(Rng& rng, std::uint64_t id) {
  const crypto::KeyPair signer = crypto::generate_keypair(rng);
  crypto::SymmetricKey key{};
  key[0] = static_cast<std::uint8_t>(id);
  crypto::Nonce nonce{};
  auction::Request r;
  r.id = RequestId(id);
  r.client = ClientId(id);
  r.resources.set(auction::ResourceSchema::kCpu, 1.0);
  r.window_end = 7200;
  r.duration = 3600;
  r.bid = 1.0;
  return seal_bid(BidKind::kRequest, encode_request(r), key, nonce, signer);
}

const Miner kMiner(ConsensusParams{.difficulty_bits = kDifficulty});

RoundState mine_state(std::vector<SealedBid> bids, const crypto::Digest& prev,
                      std::uint64_t height) {
  return kMiner.mine_preamble(std::move(bids), prev, height, 1000);
}

BlockPreamble mine(std::vector<SealedBid> bids, const crypto::Digest& prev,
                   std::uint64_t height) {
  return mine_state(std::move(bids), prev, height).take_preamble();
}

TEST(BlockHeader, BytesAreDeterministic) {
  BlockHeader h;
  h.height = 3;
  h.timestamp = 99;
  EXPECT_EQ(h.bytes(), h.bytes());
  BlockHeader h2 = h;
  h2.height = 4;
  EXPECT_NE(h.bytes(), h2.bytes());
}

TEST(BlockHeader, BytesAreTheCanonicalEncoding) {
  BlockHeader h;
  h.height = 0x0102030405060708ULL;
  h.prev_hash[0] = 0x42;
  h.timestamp = -5;
  h.bids_root[31] = 0x7f;
  ByteWriter w;
  w.write_u64(h.height);
  w.write_bytes(h.prev_hash);
  w.write_i64(h.timestamp);
  w.write_bytes(h.bids_root);
  const auto bytes = h.bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), w.bytes());
}

TEST(BidsMerkleRoot, EmptyIsZeroAndContentSensitive) {
  EXPECT_EQ(bids_merkle_root({}), crypto::Digest{});
  Rng rng(1);
  const auto a = bids_merkle_root({make_bid(rng, 1)});
  const auto b = bids_merkle_root({make_bid(rng, 2)});
  EXPECT_NE(a, b);
  EXPECT_NE(a, crypto::Digest{});
}

TEST(ValidatePreamble, HonestPreamblePasses) {
  Rng rng(2);
  const auto p = mine({make_bid(rng, 1), make_bid(rng, 2)}, crypto::Digest{}, 0);
  EXPECT_TRUE(validate_preamble(p, kDifficulty));
}

TEST(ValidatePreamble, WrongPowRejected) {
  Rng rng(3);
  auto p = mine({make_bid(rng, 1)}, crypto::Digest{}, 0);
  p.pow.nonce += 1;
  EXPECT_FALSE(validate_preamble(p, kDifficulty));
}

TEST(ValidatePreamble, DroppedBidBreaksMerkleRoot) {
  // A miner removing a bid after PoW is caught by the committed root —
  // the "did the miner exclude anyone" audit of Section III-B.
  Rng rng(4);
  auto p = mine({make_bid(rng, 1), make_bid(rng, 2)}, crypto::Digest{}, 0);
  p.sealed_bids.pop_back();
  EXPECT_FALSE(validate_preamble(p, kDifficulty));
}

TEST(ValidatePreamble, InjectedBidBreaksMerkleRoot) {
  Rng rng(5);
  auto p = mine({make_bid(rng, 1)}, crypto::Digest{}, 0);
  p.sealed_bids.push_back(make_bid(rng, 99));
  EXPECT_FALSE(validate_preamble(p, kDifficulty));
}

TEST(ValidatePreamble, ForgedBidSignatureRejected) {
  Rng rng(6);
  auto bid = make_bid(rng, 1);
  bid.ciphertext[0] ^= 1;  // breaks the signature
  // Rebuild the root so only the signature check can fail.
  BlockPreamble p;
  p.header.bids_root = bids_merkle_root({bid});
  p.sealed_bids = {bid};
  const auto hb = p.header.bytes();
  p.pow = *crypto::solve_pow({hb.data(), hb.size()}, kDifficulty);
  EXPECT_FALSE(validate_preamble(p, kDifficulty));
}

TEST(Blockchain, GenesisAppend) {
  Rng rng(7);
  Blockchain chain;
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.tip_hash(), crypto::Digest{});
  const RoundState b = mine_state({make_bid(rng, 1)}, crypto::Digest{}, 0);
  EXPECT_TRUE(chain.append(b, kDifficulty));
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.tip_hash(), b.preamble().hash());
}

TEST(Blockchain, RejectsWrongHeight) {
  Rng rng(8);
  Blockchain chain;
  // Height 5 on an empty chain.
  const RoundState b = mine_state({make_bid(rng, 1)}, crypto::Digest{}, 5);
  EXPECT_FALSE(chain.append(b, kDifficulty));
  EXPECT_EQ(chain.height(), 0u);
}

TEST(Blockchain, RejectsWrongPrevHash) {
  Rng rng(9);
  Blockchain chain;
  crypto::Digest not_the_tip{};
  not_the_tip[0] = 1;
  const RoundState b = mine_state({make_bid(rng, 1)}, not_the_tip, 0);
  EXPECT_FALSE(chain.append(b, kDifficulty));
}

TEST(Blockchain, LinksSuccessiveBlocks) {
  Rng rng(10);
  Blockchain chain;
  const RoundState b0 = mine_state({make_bid(rng, 1)}, crypto::Digest{}, 0);
  ASSERT_TRUE(chain.append(b0, kDifficulty));
  EXPECT_EQ(chain.tip_hash(), b0.preamble().hash());
  const RoundState b1 = mine_state({make_bid(rng, 2)}, chain.tip_hash(), 1);
  EXPECT_TRUE(chain.append(b1, kDifficulty));
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(b1.preamble().header.prev_hash, b0.preamble().hash());
  EXPECT_EQ(chain.tip_hash(), b1.preamble().hash());
}

TEST(Blockchain, RejectsInsufficientDifficulty) {
  Rng rng(11);
  Blockchain chain;
  const RoundState b = mine_state({make_bid(rng, 1)}, crypto::Digest{}, 0);
  // Demand far more zero bits than the solution provides.
  EXPECT_FALSE(chain.append(b, 64));
}

// CVE-2012-2459 shape: an odd Merkle level duplicates its last node, so the
// preamble over [A, B, C] and the same preamble with C listed twice share
// bids_root, PoW and block hash.  The repeated leaf must be refused by every
// step that validates a preamble, or a relay could double-list a bid
// without re-mining.
TEST(ValidatePreamble, RepeatedLeafRejectedDespiteEqualRoot) {
  Rng rng(12);
  Participant wallet(rng);
  const Miner miner(ConsensusParams{.difficulty_bits = kDifficulty});
  std::vector<SealedBid> bids;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    auction::Request r;
    r.id = RequestId(i);
    r.client = ClientId(i);
    r.resources.set(auction::ResourceSchema::kCpu, 1.0);
    r.window_end = 7200;
    r.duration = 3600;
    r.bid = 1.0 + static_cast<double>(i);
    bids.push_back(wallet.submit_request(r, rng));
  }
  const RoundState state = miner.mine_preamble(bids, crypto::Digest{}, 0, 1000);
  const BlockPreamble& honest = state.preamble();
  const std::vector<KeyReveal> reveals = wallet.on_preamble(honest);
  ASSERT_EQ(reveals.size(), 3u);
  ASSERT_TRUE(validate_preamble(honest, kDifficulty));

  BlockPreamble doubled = honest;
  doubled.sealed_bids.push_back(doubled.sealed_bids.back());
  ASSERT_EQ(bids_merkle_root(doubled.sealed_bids), honest.header.bids_root);
  const ReputationRegistry registry;
  const OpenedBlock opened_doubled = Miner::open_block(doubled, reveals, registry);
  ASSERT_EQ(opened_doubled.snapshot.requests.size(), 4u);
  // The body a producer would publish for the doubled block: its own
  // allocation over the four opened requests.
  const BlockBody doubled_body{
      .revealed_keys = reveals,
      .allocation = encode_allocation(auction::DeCloudAuction(miner.params().auction)
                                          .run(opened_doubled.snapshot,
                                               Miner::allocation_seed(doubled)))};

  EXPECT_FALSE(validate_preamble(doubled, kDifficulty));
  EXPECT_FALSE(miner.verify_body(doubled, doubled_body, registry));
  EXPECT_TRUE(
      miner.verify_body(honest, miner.compute_body(state, reveals, registry).body, registry));
  // A producer mining the repeated bid itself is refused by its own
  // state's check, so the chain does not take the block either.
  std::vector<SealedBid> repeated = bids;
  repeated.push_back(repeated.back());
  const RoundState doubled_state = miner.mine_preamble(repeated, crypto::Digest{}, 0, 1000);
  EXPECT_FALSE(validate_preamble(doubled_state, kDifficulty));
  Blockchain chain;
  EXPECT_FALSE(chain.append(doubled_state, kDifficulty));
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_TRUE(chain.append(state, kDifficulty));
}

// The round-scoped verified set (VerifiedBids) lets key reveal, collective
// verification and chain append skip a second signature check on bids the
// round already admitted.  It must never let a bad bid through: anything
// that changes a bid's payload or its signature misses the set and is
// checked in full, by every step that consults it.
struct Admitted {
  Rng rng{21};
  std::vector<SealedBid> bids;
  VerifiedBids verified;

  Admitted() {
    for (std::uint64_t i = 1; i <= 3; ++i) {
      bids.push_back(make_bid(rng, i));
      EXPECT_TRUE(verified.admit(bids.back()));
    }
  }
};

/// Mines `bids` and expects every check that consults `verified` to refuse
/// the block: the standalone and the producer's own preamble check, a
/// verifier's replay, and the chain append.
void expect_rejected_with_set(std::vector<SealedBid> bids, const VerifiedBids& verified) {
  const RoundState state = mine_state(std::move(bids), crypto::Digest{}, 0);
  const BlockPreamble& p = state.preamble();
  EXPECT_FALSE(validate_preamble(p, kDifficulty, &verified));
  EXPECT_FALSE(validate_preamble(state, kDifficulty, &verified));
  const ReputationRegistry registry;
  EXPECT_FALSE(kMiner.verify_body(p, kMiner.compute_body(state, {}, registry).body, registry,
                                  &verified));
  Blockchain chain;
  EXPECT_FALSE(chain.append(state, kDifficulty, &verified));
}

TEST(VerifiedBids, AdmitRecordsOnlyValidSignatures) {
  Admitted a;
  for (const SealedBid& bid : a.bids) EXPECT_TRUE(a.verified.contains(bid.digest(), bid.signature));
  SealedBid forged = make_bid(a.rng, 9);
  forged.signature.s ^= 1;
  EXPECT_FALSE(a.verified.admit(forged));
  EXPECT_FALSE(a.verified.contains(forged.digest(), forged.signature));
}

TEST(VerifiedBids, AdmittedPreambleValidatesEverywhere) {
  Admitted a;
  const RoundState state = mine_state(a.bids, crypto::Digest{}, 0);
  const BlockPreamble& p = state.preamble();
  EXPECT_TRUE(validate_preamble(p, kDifficulty, &a.verified));
  EXPECT_TRUE(validate_preamble(state, kDifficulty, &a.verified));
  const ReputationRegistry registry;
  EXPECT_TRUE(kMiner.verify_body(p, kMiner.compute_body(state, {}, registry).body, registry,
                                 &a.verified));
  Blockchain chain;
  EXPECT_TRUE(chain.append(state, kDifficulty, &a.verified));
  EXPECT_EQ(chain.tip_hash(), p.hash());
}

TEST(VerifiedBids, FlippedCiphertextReRootedAndReMinedIsRejected) {
  Admitted a;
  std::vector<SealedBid> tampered = a.bids;
  tampered[1].ciphertext[0] ^= 1;  // the digest moves, so the lookup misses
  expect_rejected_with_set(tampered, a.verified);
}

TEST(VerifiedBids, BorrowedSignatureIsRejected) {
  Admitted a;
  std::vector<SealedBid> tampered = a.bids;
  tampered[2].signature = tampered[0].signature;  // admitted, but for another payload
  expect_rejected_with_set(tampered, a.verified);
}

TEST(VerifiedBids, AdmittedPayloadWithAlteredSignatureIsRejected) {
  Admitted a;
  std::vector<SealedBid> tampered = a.bids;
  tampered[0].signature.s ^= 1;  // same digest, different signature: the key misses
  expect_rejected_with_set(tampered, a.verified);
}

TEST(VerifiedBids, UnadmittedBadSignatureIsRejected) {
  Admitted a;
  std::vector<SealedBid> bids = a.bids;
  bids.push_back(make_bid(a.rng, 4));
  bids.back().signature.r ^= 1;
  expect_rejected_with_set(bids, a.verified);
  // The same bid with its signature intact is checked in full and passes.
  bids.back().signature.r ^= 1;
  EXPECT_TRUE(validate_preamble(mine(bids, crypto::Digest{}, 0), kDifficulty, &a.verified));
}

}  // namespace
}  // namespace decloud::ledger
