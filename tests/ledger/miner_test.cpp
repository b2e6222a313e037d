#include "ledger/miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "auction/verify.hpp"
#include "ledger/codec.hpp"
#include "ledger/contract.hpp"
#include "ledger/participant.hpp"

namespace decloud::ledger {
namespace {

struct Round {
  Rng rng{11};
  ConsensusParams params{.difficulty_bits = 8};
  Miner miner{params};
  ReputationRegistry registry;
  Participant alice{rng};
  Participant bob{rng};
  RoundState state;
  const BlockPreamble& preamble = state.preamble();
  std::vector<KeyReveal> reveals;

  /// `num_requests` requests of `request_cpu` cores each, from two clients,
  /// against three 4-core offers.  A `cpu_significance` below 1 makes the
  /// requests' CPU non-strict.
  explicit Round(std::uint64_t num_requests = 4, double request_cpu = 1.0,
                 double cpu_significance = 1.0)
      : state(mine(num_requests, request_cpu, cpu_significance)) {
    auto ra = alice.on_preamble(preamble);
    auto rb = bob.on_preamble(preamble);
    reveals = ra;
    reveals.insert(reveals.end(), rb.begin(), rb.end());
  }

 private:
  RoundState mine(std::uint64_t num_requests, double request_cpu, double cpu_significance) {
    std::vector<SealedBid> bids;
    for (std::uint64_t i = 0; i < num_requests; ++i) {
      auction::Request r;
      r.id = RequestId(i);
      r.client = ClientId(i % 2);
      r.submitted = static_cast<Time>(i);
      r.resources.set(auction::ResourceSchema::kCpu, request_cpu);
      if (cpu_significance < 1.0) r.significance.set(auction::ResourceSchema::kCpu, cpu_significance);
      r.window_end = 7200;
      r.duration = 3600;
      r.bid = 1.0 + static_cast<double>(i);
      bids.push_back(alice.submit_request(r, rng));
    }
    for (std::uint64_t i = 0; i < 3; ++i) {
      auction::Offer o;
      o.id = OfferId(i);
      o.provider = ProviderId(i);
      o.submitted = static_cast<Time>(i);
      o.resources.set(auction::ResourceSchema::kCpu, 4.0);
      o.window_end = 86400;
      o.bid = 0.1 + 0.1 * static_cast<double>(i);
      bids.push_back(bob.submit_offer(o, rng));
    }
    return miner.mine_preamble(std::move(bids), crypto::Digest{}, 0, 1000);
  }
};

TEST(Miner, MinedPreambleValidates) {
  Round round;
  EXPECT_TRUE(validate_preamble(round.preamble, round.params.difficulty_bits));
  EXPECT_EQ(round.preamble.sealed_bids.size(), 7u);
}

TEST(Miner, MinedStateHoldsEachBidsDigestAndTheRootsTree) {
  Round round;
  ASSERT_EQ(round.state.leaves().size(), round.preamble.sealed_bids.size());
  for (std::size_t i = 0; i < round.preamble.sealed_bids.size(); ++i) {
    EXPECT_EQ(round.state.leaves()[i], round.preamble.sealed_bids[i].digest());
  }
  EXPECT_EQ(round.state.root(), round.preamble.header.bids_root);
  EXPECT_EQ(round.preamble.header.bids_root, bids_merkle_root(round.preamble.sealed_bids));
  EXPECT_TRUE(validate_preamble(round.state, round.params.difficulty_bits));
  EXPECT_FALSE(validate_preamble(round.state, 64));
}

TEST(Miner, ProducerOpensTheBlockAVerifierOpens) {
  // compute_body opens over the mined leaves; Miner::open_block hashes
  // the bids itself.  Both must open the same bids into the same rows,
  // with a withheld key as well as with every key.
  Round round;
  auto partial = round.reveals;
  partial.erase(partial.begin() + 1);
  for (const auto& reveals : {round.reveals, partial}) {
    const ProducedBody produced = round.miner.compute_body(round.state, reveals, round.registry);
    const OpenedBlock opened = Miner::open_block(round.preamble, reveals, round.registry);
    EXPECT_EQ(produced.opened.request_source, opened.request_source);
    EXPECT_EQ(produced.opened.offer_source, opened.offer_source);
    EXPECT_EQ(produced.opened.unopened, opened.unopened);
    const auction::DeCloudAuction mechanism(round.params.auction);
    EXPECT_EQ(produced.body.allocation,
              encode_allocation(
                  mechanism.run(opened.snapshot, Miner::allocation_seed(round.preamble))));
    EXPECT_TRUE(round.miner.verify_body(round.preamble, produced.body, round.registry));
  }
}

TEST(Miner, OpenBlockRecoversAllBids) {
  Round round;
  const OpenedBlock opened = Miner::open_block(round.preamble, round.reveals, round.registry);
  EXPECT_EQ(opened.snapshot.requests.size(), 4u);
  EXPECT_EQ(opened.snapshot.offers.size(), 3u);
  EXPECT_TRUE(opened.unopened.empty());
  EXPECT_EQ(opened.request_source.size(), 4u);
  EXPECT_EQ(opened.offer_source.size(), 3u);
}

TEST(Miner, MissingKeysLeaveBidsUnopened) {
  Round round;
  // Withhold the last reveal: that bid stays sealed and out of the round.
  auto partial = round.reveals;
  partial.pop_back();
  const OpenedBlock opened = Miner::open_block(round.preamble, partial, round.registry);
  EXPECT_EQ(opened.unopened.size(), 1u);
  EXPECT_EQ(opened.snapshot.requests.size() + opened.snapshot.offers.size(), 6u);
}

TEST(Miner, WrongKeyLeavesBidUnopened) {
  Round round;
  auto corrupted = round.reveals;
  corrupted[0].key[0] ^= 0xff;
  const OpenedBlock opened = Miner::open_block(round.preamble, corrupted, round.registry);
  EXPECT_EQ(opened.unopened.size(), 1u);
}

TEST(Miner, AllocationSeedComesFromBlockHash) {
  Round round;
  const std::uint64_t seed = Miner::allocation_seed(round.preamble);
  std::uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) {
    expect = (expect << 8) | round.preamble.hash()[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(seed, expect);
}

TEST(Miner, ComputedBodyPassesVerification) {
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  EXPECT_TRUE(round.miner.verify_body(round.preamble, body, round.registry));
}

TEST(Miner, AllocationInBodySatisfiesInvariants) {
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  const OpenedBlock opened = Miner::open_block(round.preamble, body.revealed_keys, round.registry);
  const auto result = decode_allocation({body.allocation.data(), body.allocation.size()},
                                        opened.snapshot.requests.size(),
                                        opened.snapshot.offers.size());
  EXPECT_TRUE(auction::verify_invariants(opened.snapshot, result, round.params.auction).ok());
}

TEST(Miner, VerifyRejectsTamperedAllocation) {
  Round round;
  BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  ASSERT_FALSE(body.allocation.empty());
  body.allocation.back() ^= 0x01;  // flip one byte of the allocation
  EXPECT_FALSE(round.miner.verify_body(round.preamble, body, round.registry));
}

/// The honest body with its allocation decoded, changed by `tamper` and
/// re-encoded: what a producer claiming a different result would publish.
template <typename Tamper>
BlockBody forge_allocation(const Round& round, const BlockBody& honest, Tamper tamper) {
  const OpenedBlock opened =
      Miner::open_block(round.preamble, honest.revealed_keys, round.registry);
  auction::RoundResult result =
      decode_allocation({honest.allocation.data(), honest.allocation.size()},
                        opened.snapshot.requests.size(), opened.snapshot.offers.size());
  tamper(result);
  BlockBody forged = honest;
  forged.allocation = encode_allocation(result);
  return forged;
}

TEST(Miner, VerifyRejectsDroppedMatch) {
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  const BlockBody forged = forge_allocation(round, body, [](auction::RoundResult& r) {
    ASSERT_FALSE(r.matches.empty());
    r.matches.pop_back();
  });
  EXPECT_FALSE(round.miner.verify_body(round.preamble, forged, round.registry));
}

TEST(Miner, VerifyRejectsAlteredPayment) {
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  const BlockBody forged = forge_allocation(round, body, [](auction::RoundResult& r) {
    ASSERT_FALSE(r.matches.empty());
    r.matches[0].payment *= 0.5;  // a producer undercharging an accomplice
  });
  EXPECT_FALSE(round.miner.verify_body(round.preamble, forged, round.registry));
}

TEST(Miner, VerifyRejectsWrongSeed) {
  // The lottery seed is the block hash, not a body field: an allocation
  // drawn under any other seed fails replay whenever it differs.  Eight
  // 3-core requests for three 4-core offers leave a demand surplus, so
  // the verifiable lottery draws the allocation.
  Round round(8, 3.0);
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  const auction::MarketSnapshot snapshot =
      Miner::open_block(round.preamble, round.reveals, round.registry).snapshot;
  const auction::DeCloudAuction mechanism(round.params.auction);
  const std::uint64_t seed = Miner::allocation_seed(round.preamble);
  BlockBody forged = body;
  for (std::uint64_t other = seed + 1; forged.allocation == body.allocation && other != seed + 64;
       ++other) {
    forged.allocation = encode_allocation(mechanism.run(snapshot, other));
  }
  ASSERT_NE(forged.allocation, body.allocation) << "no other seed moved the lottery";
  EXPECT_FALSE(round.miner.verify_body(round.preamble, forged, round.registry));
}

TEST(Miner, VerifyRejectsDroppedKeys) {
  // The producer excluding participants (by "losing" their keys) changes
  // the replayed snapshot: the claimed allocation — computed with all keys
  // — no longer matches the replay over the reduced key set.
  Round round;
  BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  // Drop every request key: the replay has offers only, so the claimed
  // non-empty allocation cannot reproduce.
  BlockBody tampered = body;
  tampered.revealed_keys.erase(tampered.revealed_keys.begin(),
                               tampered.revealed_keys.begin() + 4);
  EXPECT_FALSE(round.miner.verify_body(round.preamble, tampered, round.registry));
}

TEST(Miner, DroppingAnIrrelevantKeyIsDetectedByItsOwner) {
  // Dropping a key whose bid never trades can leave the allocation bytes
  // unchanged — replay verification alone may accept it.  The protocol's
  // defence is participant-side: the owner sees its key missing from the
  // body and knows it was excluded (Section III-B).
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  std::vector<crypto::Digest> in_body;
  for (const auto& kr : body.revealed_keys) in_body.push_back(kr.bid_digest);
  // Every reveal the participants sent is present in the honest body.
  for (const auto& kr : round.reveals) {
    EXPECT_NE(std::find(in_body.begin(), in_body.end(), kr.bid_digest), in_body.end());
  }
}

TEST(Miner, VerifyRejectsDivergentConsensusConfig) {
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  ConsensusParams other = round.params;
  other.auction.truthful = false;  // the greedy benchmark: no reduction, no payments
  const Miner dissenter(other);
  // The dissenter's replay yields other bytes, so it rejects the honest
  // body that the consensus config accepts.
  ASSERT_NE(dissenter.compute_body(round.state, round.reveals, round.registry).body.allocation,
            body.allocation);
  EXPECT_FALSE(dissenter.verify_body(round.preamble, body, round.registry));
  EXPECT_TRUE(round.miner.verify_body(round.preamble, body, round.registry));
}

// Miner::verify_body is the one replay of a round; these cases pin what
// that replay is and that a divergent auction setting breaks it.

TEST(VerifyReplay, HonestResultMatchesReplay) {
  // The honest body's allocation is byte for byte the mechanism re-run
  // over the opened snapshot with the block-hash seed.
  Round round;
  const BlockBody body = round.miner.compute_body(round.state, round.reveals, round.registry).body;
  const auction::MarketSnapshot snapshot =
      Miner::open_block(round.preamble, round.reveals, round.registry).snapshot;
  const auction::RoundResult replay = auction::DeCloudAuction(round.params.auction)
                                          .run(snapshot, Miner::allocation_seed(round.preamble));
  ASSERT_FALSE(replay.matches.empty());
  EXPECT_EQ(encode_allocation(replay), body.allocation);
  EXPECT_TRUE(round.miner.verify_body(round.preamble, body, round.registry));
}

TEST(VerifyReplay, DetectsDivergentConfig) {
  // 5-core requests with a non-strict CPU (σ = 0.5) fit the 4-core offers
  // only under flexibility 0.8.  A producer clearing with f = 0.8 publishes
  // trades that a verifier with the default f = 1 cannot reproduce.
  Round round(4, 5.0, 0.5);
  ConsensusParams flexible = round.params;
  flexible.auction.flexibility = 0.8;
  const Miner producer(flexible);
  const BlockBody body = producer.compute_body(round.state, round.reveals, round.registry).body;
  ASSERT_NE(round.miner.compute_body(round.state, round.reveals, round.registry).body.allocation,
            body.allocation);
  EXPECT_FALSE(round.miner.verify_body(round.preamble, body, round.registry));
  EXPECT_TRUE(producer.verify_body(round.preamble, body, round.registry));
}

}  // namespace
}  // namespace decloud::ledger
