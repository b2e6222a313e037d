#include "ledger/protocol.hpp"

#include <gtest/gtest.h>

#include "auction/verify.hpp"
#include "common/rng.hpp"

namespace decloud::ledger {
namespace {

constexpr unsigned kDifficulty = 8;

ConsensusParams params() { return {.difficulty_bits = kDifficulty}; }

auction::Request simple_request(std::uint64_t id, Money bid) {
  auction::Request r;
  r.id = RequestId(id);
  r.client = ClientId(id);
  r.submitted = static_cast<Time>(id);
  r.resources.set(auction::ResourceSchema::kCpu, 1.0);
  r.window_end = 7200;
  r.duration = 3600;
  r.bid = bid;
  return r;
}

auction::Offer simple_offer(std::uint64_t id, Money bid) {
  auction::Offer o;
  o.id = OfferId(id);
  o.provider = ProviderId(id);
  o.submitted = static_cast<Time>(id);
  o.resources.set(auction::ResourceSchema::kCpu, 4.0);
  o.window_end = 86400;
  o.bid = bid;
  return o;
}

TEST(Mempool, DrainsInSubmissionOrder) {
  Mempool pool;
  Rng rng(1);
  Participant wallet(rng);
  std::vector<crypto::Digest> submitted;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    SealedBid bid = wallet.submit_request(simple_request(id, static_cast<double>(id)), rng);
    submitted.push_back(bid.digest());
    pool.submit(std::move(bid));
  }
  EXPECT_EQ(pool.size(), 3u);
  const auto all = pool.drain();
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].digest(), submitted[i]);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(Mempool, RejectsDuplicateSealedBids) {
  Mempool pool;
  Rng rng(9);
  Participant wallet(rng);
  SealedBid bid = wallet.submit_request(simple_request(1, 1.0), rng);
  const SealedBid copy = bid;
  EXPECT_EQ(pool.submit(std::move(bid)), Mempool::Admission::kAccepted);
  EXPECT_EQ(pool.submit(copy), Mempool::Admission::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);  // the duplicate never pooled

  // Draining forgets the digests: the same bid may try again next round.
  (void)pool.drain();
  EXPECT_EQ(pool.submit(copy), Mempool::Admission::kAccepted);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Protocol, FullRoundProducesAcceptedBlock) {
  LedgerProtocol protocol(params());
  Rng rng(2);
  Participant clients(rng);
  Participant providers(rng);
  for (std::uint64_t i = 0; i < 6; ++i) {
    protocol.mempool().submit(
        clients.submit_request(simple_request(i, 1.0 + static_cast<double>(i)), rng));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    protocol.mempool().submit(
        providers.submit_offer(simple_offer(i, 0.1 + 0.05 * static_cast<double>(i)), rng));
  }

  const RoundOutcome outcome = protocol.run_round({&clients, &providers}, 3, 1000);

  EXPECT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.verifier_votes, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(protocol.chain().height(), 1u);
  EXPECT_EQ(outcome.snapshot.requests.size(), 6u);
  EXPECT_EQ(outcome.snapshot.offers.size(), 4u);
  EXPECT_FALSE(outcome.result.matches.empty());
  EXPECT_EQ(outcome.agreements.size(), outcome.result.matches.size());
  // The on-chain allocation satisfies the economic invariants.
  EXPECT_TRUE(auction::verify_invariants(outcome.snapshot, outcome.result,
                                         protocol.params().auction)
                  .ok());
}

TEST(Protocol, EmptyRoundStillExtendsChain) {
  LedgerProtocol protocol(params());
  const RoundOutcome outcome = protocol.run_round({}, 1, 0);
  EXPECT_TRUE(outcome.block_accepted);
  EXPECT_TRUE(outcome.result.matches.empty());
  EXPECT_EQ(protocol.chain().height(), 1u);
}

TEST(Protocol, SuccessiveRoundsLinkBlocks) {
  LedgerProtocol protocol(params());
  Rng rng(3);
  Participant wallet(rng);
  const std::size_t verifiers = 2;

  protocol.mempool().submit(wallet.submit_request(simple_request(1, 2.0), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(1, 0.1), rng));
  const auto first = protocol.run_round({&wallet}, verifiers, 100);
  ASSERT_TRUE(first.block_accepted);

  protocol.mempool().submit(wallet.submit_request(simple_request(2, 2.0), rng));
  const auto second = protocol.run_round({&wallet}, verifiers, 200);
  ASSERT_TRUE(second.block_accepted);

  ASSERT_EQ(protocol.chain().height(), 2u);
  EXPECT_EQ(second.block.preamble.header.prev_hash, first.block.preamble.hash());
  EXPECT_EQ(protocol.chain().tip_hash(), second.block.preamble.hash());
}

TEST(Protocol, AgreementsFlowThroughContract) {
  LedgerProtocol protocol(params());
  Rng rng(4);
  Participant wallet(rng);
  // Two offers so the price can come from the spare (SBBA luck case).
  protocol.mempool().submit(wallet.submit_request(simple_request(1, 5.0), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(1, 0.1), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(2, 0.2), rng));
  const RoundOutcome outcome = protocol.run_round({&wallet}, 1, 0);
  ASSERT_TRUE(outcome.block_accepted);
  ASSERT_EQ(outcome.agreements.size(), 1u);

  const ClientId client = outcome.snapshot.requests[outcome.result.matches[0].request].client;
  EXPECT_TRUE(protocol.contract().accept(outcome.agreements[0], client));
  EXPECT_EQ(protocol.contract().find(outcome.agreements[0])->state, AgreementState::kActive);
}

TEST(Protocol, AbsentParticipantsBidsStaySealed) {
  // One participant never sees the preamble (offline): its bid cannot be
  // opened and its requests sit out the round.
  LedgerProtocol protocol(params());
  Rng rng(5);
  Participant online(rng);
  Participant offline(rng);
  protocol.mempool().submit(online.submit_request(simple_request(1, 5.0), rng));
  protocol.mempool().submit(offline.submit_request(simple_request(2, 9.0), rng));
  protocol.mempool().submit(online.submit_offer(simple_offer(1, 0.1), rng));
  protocol.mempool().submit(online.submit_offer(simple_offer(2, 0.2), rng));

  // Only `online` participates in the reveal phase.
  const RoundOutcome outcome = protocol.run_round({&online}, 1, 0);
  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.snapshot.requests.size(), 1u);  // offline's request missing
  EXPECT_EQ(offline.pending_bids(), 1u);            // still awaiting a preamble
}

TEST(Protocol, ReputationGateReadsTheRegistryNotTheBid) {
  // Offer::min_reputation gates the client's on-chain score (Section
  // III-B), not the reputation the client sealed into its own bid.
  LedgerProtocol protocol(params());
  Rng rng(6);
  Participant wallet(rng);
  const ClientId flake(7);

  // Round 1: the client is matched, then denies the agreement through the
  // contract, which costs it one denial (score 1.0 → 0.8).
  auction::Request first = simple_request(1, 5.0);
  first.client = flake;
  protocol.mempool().submit(wallet.submit_request(first, rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(1, 0.1), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(2, 0.2), rng));
  const RoundOutcome matched = protocol.run_round({&wallet}, 1, 0);
  ASSERT_TRUE(matched.block_accepted);
  ASSERT_EQ(matched.agreements.size(), 1u);
  ASSERT_TRUE(protocol.contract().deny(matched.agreements[0], flake));
  ASSERT_DOUBLE_EQ(protocol.contract().reputation().score(flake), 0.8);

  // Round 2: the same client self-reports 1.0 against offers that demand
  // 0.9.  The registry's 0.8 is what every miner stamps, so no trade.
  auction::Request second = simple_request(2, 5.0);
  second.client = flake;
  second.reputation = 1.0;
  protocol.mempool().submit(wallet.submit_request(second, rng));
  for (std::uint64_t id = 3; id <= 4; ++id) {
    auction::Offer gated = simple_offer(id, 0.1);
    gated.min_reputation = 0.9;
    protocol.mempool().submit(wallet.submit_offer(gated, rng));
  }
  const RoundOutcome refused = protocol.run_round({&wallet}, 1, 600);
  ASSERT_TRUE(refused.block_accepted);  // producer and verifier stamped alike
  ASSERT_EQ(refused.snapshot.requests.size(), 1u);
  EXPECT_DOUBLE_EQ(refused.snapshot.requests[0].reputation, 0.8);
  EXPECT_TRUE(refused.result.matches.empty());
}

}  // namespace
}  // namespace decloud::ledger
