// Byzantine rounds through the in-process protocol: withheld reveals,
// dishonest votes, corrupted allocation bodies, tampered sealed bids.
// Every scenario must degrade gracefully — bids excluded, reputations
// debited, quorum or bounded re-mine deciding the block — and replay
// byte-identically under the same plan and seed.
#include "ledger/protocol.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "auction/verify.hpp"
#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "trace/workload.hpp"

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

TEST(RequiredAccepts, CeilsTheQuorumWithoutFloatDrift) {
  EXPECT_EQ(LedgerProtocol::required_accepts(1.0, 3), 3u);
  EXPECT_EQ(LedgerProtocol::required_accepts(2.0 / 3.0, 3), 2u);  // exact third, no round-up
  EXPECT_EQ(LedgerProtocol::required_accepts(0.5, 4), 2u);
  EXPECT_EQ(LedgerProtocol::required_accepts(0.51, 4), 3u);
  EXPECT_EQ(LedgerProtocol::required_accepts(0.01, 5), 1u);
  EXPECT_EQ(LedgerProtocol::required_accepts(0.7, 0), 0u);  // producer-only mode
  EXPECT_THROW(LedgerProtocol::required_accepts(0.0, 3), precondition_error);
  EXPECT_THROW(LedgerProtocol::required_accepts(1.5, 3), precondition_error);
}

TEST(ProtocolFault, WithheldRevealExcludesOnlyThatSenderAndDebitsReputation) {
  LedgerProtocol protocol(params());
  const fault::FaultInjector injector(fault::FaultPlan::parse("withhold_reveal:index=1"), 9);
  protocol.attach({.faults = &injector});

  Rng rng(2);
  Participant online(rng);
  Participant withholder(rng);
  protocol.mempool().submit(online.submit_request(simple_request(1, 5.0), rng));
  protocol.mempool().submit(withholder.submit_request(simple_request(2, 9.0), rng));
  protocol.mempool().submit(online.submit_offer(simple_offer(1, 0.1), rng));
  protocol.mempool().submit(online.submit_offer(simple_offer(2, 0.2), rng));

  const RoundOutcome outcome =
      protocol.run_round({&online, &withholder}, 1, 0);

  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.snapshot.requests.size(), 1u);  // withholder's request gone
  EXPECT_EQ(outcome.snapshot.offers.size(), 2u);
  EXPECT_EQ(outcome.fault.reveals_withheld, 1u);
  EXPECT_EQ(outcome.fault.bids_unopened, 1u);
  ASSERT_EQ(outcome.fault.penalized.size(), 1u);
  // One multiplicative withhold hit (×0.5) off the initial score 1.0.
  EXPECT_DOUBLE_EQ(protocol.contract().reputation().score(outcome.fault.penalized[0]), 0.5);
  // The withholder never saw a reveal request honored: its wallet still
  // holds the bid for a later round.
  EXPECT_EQ(withholder.pending_bids(), 1u);
  // Whatever did land satisfies the mechanism invariants.
  EXPECT_TRUE(auction::verify_invariants(outcome.snapshot, outcome.result,
                                         protocol.params().auction)
                  .ok());
}

TEST(ProtocolFault, InvalidSealedBidIsUnopenedNotFatal) {
  // A validly signed bid whose values the market boundary refuses
  // (auction::validate) must not reach the mechanism, whose own check
  // would throw and halt every round that carries it.  It is treated like
  // an unopened bid: excluded, its sender penalized, the block accepted.
  LedgerProtocol protocol(params());
  Rng rng(8);
  Participant honest(rng);
  Participant byzantine(rng);
  protocol.mempool().submit(honest.submit_request(simple_request(1, 5.0), rng));
  protocol.mempool().submit(honest.submit_offer(simple_offer(1, 0.1), rng));
  protocol.mempool().submit(honest.submit_offer(simple_offer(2, 0.2), rng));
  auction::Request negative = simple_request(2, -1.0);
  auction::Request too_long = simple_request(3, 9.0);
  too_long.duration = too_long.window_end + 1;
  auction::Request infinite =
      simple_request(4, std::numeric_limits<double>::infinity());
  for (const auction::Request& r : {negative, too_long, infinite}) {
    protocol.mempool().submit(byzantine.submit_request(r, rng));
  }

  const RoundOutcome outcome = protocol.run_round({&honest, &byzantine}, 1, 0);

  ASSERT_TRUE(outcome.block_accepted);
  ASSERT_EQ(outcome.snapshot.requests.size(), 1u);
  EXPECT_EQ(outcome.snapshot.requests[0].id, RequestId(1));
  EXPECT_EQ(outcome.fault.bids_unopened, 3u);
  ASSERT_EQ(outcome.fault.penalized.size(), 1u);
  EXPECT_EQ(outcome.fault.penalized[0], ledger_address(byzantine.public_key()));
  ASSERT_EQ(outcome.result.matches.size(), 1u);  // the honest trade is struck
  EXPECT_TRUE(auction::verify_invariants(outcome.snapshot, outcome.result,
                                         protocol.params().auction)
                  .ok());
  EXPECT_EQ(protocol.chain().height(), 1u);
}

TEST(ProtocolFault, QuorumToleratesADishonestMinority) {
  ConsensusParams p = params();
  p.quorum = 2.0 / 3.0;
  LedgerProtocol protocol(p);
  const fault::FaultInjector injector(fault::FaultPlan::parse("dishonest_vote:index=1"), 5);
  protocol.attach({.faults = &injector});

  Rng rng(3);
  Participant wallet(rng);
  protocol.mempool().submit(wallet.submit_request(simple_request(1, 5.0), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(1, 0.1), rng));

  const RoundOutcome outcome = protocol.run_round({&wallet}, 3, 0);

  EXPECT_TRUE(outcome.block_accepted);  // 2 of 3 honest accepts reach quorum
  EXPECT_EQ(outcome.verifier_votes, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(outcome.fault.dishonest_votes, 1u);
  EXPECT_FALSE(outcome.fault.producer_penalized);
  EXPECT_EQ(protocol.chain().height(), 1u);
}

TEST(ProtocolFault, UnanimityRejectsOnOneDishonestVote) {
  // Default quorum 1.0 (legacy unanimity) with no re-mine budget: a single
  // inverted vote sinks the block and the producer eats the penalty.
  LedgerProtocol protocol(params());
  const fault::FaultInjector injector(fault::FaultPlan::parse("dishonest_vote:index=0"), 5);
  protocol.attach({.faults = &injector});

  Rng rng(4);
  Participant wallet(rng);
  protocol.mempool().submit(wallet.submit_request(simple_request(1, 5.0), rng));

  const RoundOutcome outcome = protocol.run_round({&wallet}, 2, 0);

  EXPECT_FALSE(outcome.block_accepted);
  EXPECT_EQ(outcome.verifier_votes, (std::vector<bool>{false, true}));
  EXPECT_TRUE(outcome.fault.producer_penalized);
  EXPECT_EQ(outcome.fault.remine_attempts, 0u);
  EXPECT_EQ(protocol.producer_penalties(), 1u);
  EXPECT_EQ(protocol.chain().height(), 0u);
}

TEST(ProtocolFault, CorruptedAllocationIsReminedWithinBudget) {
  ConsensusParams p = params();
  p.max_remine_attempts = 1;
  LedgerProtocol protocol(p);
  // The producer corrupts its suggestion on attempt 0 only; the verifier
  // re-runs the auction, catches the mismatch, and forces a clean re-mine.
  const fault::FaultInjector injector(
      fault::FaultPlan::parse("corrupt_allocation:attempts=0"), 13);
  protocol.attach({.faults = &injector});

  Rng rng(5);
  Participant wallet(rng);
  protocol.mempool().submit(wallet.submit_request(simple_request(1, 5.0), rng));
  // Two offers so the trade survives reduction (spare sets the price).
  protocol.mempool().submit(wallet.submit_offer(simple_offer(1, 0.1), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(2, 0.2), rng));

  const RoundOutcome outcome = protocol.run_round({&wallet}, 1, 0);

  EXPECT_TRUE(outcome.block_accepted);
  EXPECT_TRUE(outcome.fault.allocation_corrupted);
  EXPECT_TRUE(outcome.fault.producer_penalized);
  EXPECT_EQ(outcome.fault.remine_attempts, 1u);
  EXPECT_EQ(outcome.verifier_votes, (std::vector<bool>{true}));  // final attempt
  EXPECT_EQ(protocol.producer_penalties(), 1u);
  EXPECT_EQ(protocol.chain().height(), 1u);
  EXPECT_FALSE(outcome.result.matches.empty());
}

TEST(ProtocolFault, RemineExcludesTheWithheldBids) {
  ConsensusParams p = params();
  p.max_remine_attempts = 1;
  LedgerProtocol protocol(p);
  // Attempt 0 is sunk by a dishonest vote while participant 1 withholds;
  // the retry mines a smaller preamble without the unopened bid, and the
  // withholder is charged exactly once for the whole round.
  const fault::FaultInjector injector(
      fault::FaultPlan::parse("withhold_reveal:index=1;dishonest_vote:attempts=0"), 21);
  protocol.attach({.faults = &injector});

  Rng rng(6);
  Participant online(rng);
  Participant withholder(rng);
  protocol.mempool().submit(online.submit_request(simple_request(1, 5.0), rng));
  protocol.mempool().submit(withholder.submit_request(simple_request(2, 9.0), rng));
  protocol.mempool().submit(online.submit_offer(simple_offer(1, 0.1), rng));

  const RoundOutcome outcome =
      protocol.run_round({&online, &withholder}, 1, 0);

  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.fault.remine_attempts, 1u);
  EXPECT_EQ(outcome.block.preamble.sealed_bids.size(), 2u);  // withheld bid excluded
  EXPECT_EQ(outcome.fault.bids_unopened, 0u);                // nothing unopened on the retry
  ASSERT_EQ(outcome.fault.penalized.size(), 1u);             // charged once, not per attempt
  EXPECT_EQ(outcome.snapshot.requests.size(), 1u);
  EXPECT_EQ(protocol.chain().height(), 1u);
}

TEST(ProtocolFault, AnIndependentNodeAcceptsEveryAppendedBlock) {
  // The producer checks its own attempts against the leaves and root it
  // mined (ledger::RoundState) instead of re-hashing the bids.  A state
  // carried over from an earlier attempt would show here: every block the
  // protocol appends must pass a fresh node's checks, which derive all of
  // it from the bytes.  Only verifier 0 lies, so a corrupted body can
  // never reach the unanimous quorum.
  ConsensusParams p = params();
  p.max_remine_attempts = 1;
  LedgerProtocol protocol(p);
  const fault::FaultInjector injector(
      fault::FaultPlan::parse(
          "withhold_reveal:p=0.3;corrupt_allocation:p=0.3;dishonest_vote:p=0.3:index=0"),
      31);
  protocol.attach({.faults = &injector});

  Rng rng(9);
  Participant clients(rng);
  Participant providers(rng);
  Participant third(rng);
  std::size_t accepted = 0;
  std::size_t remined = 0;
  for (std::uint64_t round = 0; round < 12; ++round) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Participant& sender = i == 2 ? third : clients;
      protocol.mempool().submit(sender.submit_request(
          simple_request(round * 10 + i, 2.0 + static_cast<double>(i)), rng));
    }
    protocol.mempool().submit(providers.submit_offer(simple_offer(round * 10 + 1, 0.2), rng));
    protocol.mempool().submit(providers.submit_offer(simple_offer(round * 10 + 2, 0.3), rng));
    // The registry every miner of this round opens against: the contract
    // changes only after the votes.
    const ReputationRegistry registry = protocol.contract().reputation();

    const RoundOutcome outcome =
        protocol.run_round({&clients, &providers, &third}, 2, Time(round * 100));
    if (!outcome.block_accepted) continue;
    ++accepted;
    if (outcome.fault.remine_attempts > 0) ++remined;
    const BlockPreamble& preamble = outcome.block.preamble;
    EXPECT_EQ(preamble.header.bids_root, bids_merkle_root(preamble.sealed_bids))
        << "round " << round;
    EXPECT_TRUE(validate_preamble(preamble, kDifficulty)) << "round " << round;
    EXPECT_TRUE(Miner(p).verify_body(preamble, outcome.block.body, registry))
        << "round " << round;
  }
  // The plan bit: some rounds re-mined and still appended a block.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(remined, 0u);
  EXPECT_EQ(protocol.chain().height(), accepted);
}

TEST(ProtocolFault, TamperedSealedBidIsDroppedBeforeMining) {
  LedgerProtocol protocol(params());
  Rng rng(7);
  Participant wallet(rng);
  SealedBid tampered = wallet.submit_request(simple_request(1, 9.0), rng);
  tampered.ciphertext.front() ^= 0xFF;  // breaks the signature over the bid
  protocol.mempool().submit(std::move(tampered));
  protocol.mempool().submit(wallet.submit_request(simple_request(2, 5.0), rng));
  protocol.mempool().submit(wallet.submit_offer(simple_offer(1, 0.1), rng));

  const RoundOutcome outcome = protocol.run_round({&wallet}, 1, 0);

  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.fault.bids_invalid_dropped, 1u);
  EXPECT_EQ(outcome.block.preamble.sealed_bids.size(), 2u);
  EXPECT_EQ(outcome.snapshot.requests.size(), 1u);  // only the honest request
}

TEST(ProtocolFault, ChaosRoundReplaysByteIdentically) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "withhold_reveal:p=0.5;dishonest_vote:p=0.4;corrupt_allocation:p=0.3:attempts=0");

  const auto transcript_with = [&](const fault::FaultInjector* injector) {
    ConsensusParams p = params();
    p.quorum = 2.0 / 3.0;
    p.max_remine_attempts = 2;
    LedgerProtocol protocol(p);
    protocol.attach({.faults = injector});

    Rng rng(8);
    Participant clients(rng);
    Participant providers(rng);
    std::string transcript;
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 3; ++i) {
        protocol.mempool().submit(clients.submit_request(
            simple_request(round * 10 + i, 2.0 + static_cast<double>(i)), rng));
      }
      protocol.mempool().submit(
          providers.submit_offer(simple_offer(round * 10 + 1, 0.2), rng));
      const RoundOutcome outcome = protocol.run_round(
          {&clients, &providers}, 3, Time(round * 100));
      transcript += outcome_json(outcome);
      transcript += '\n';
    }
    return transcript;
  };

  const fault::FaultInjector chaos(plan, 77);
  const fault::FaultInjector replay(plan, 77);
  const std::string baseline = transcript_with(&chaos);
  EXPECT_EQ(transcript_with(&replay), baseline);
  // The plan actually bit somewhere, or this test proves nothing.
  EXPECT_NE(transcript_with(nullptr), baseline);
}

TEST(ProtocolFault, OutcomeJsonCarriesTheFaultReport) {
  RoundOutcome outcome;
  outcome.block_accepted = true;
  outcome.verifier_votes = {true, false};
  outcome.fault.reveals_withheld = 2;
  outcome.fault.producer_penalized = true;
  outcome.fault.penalized = {ClientId(42)};
  const std::string json = outcome_json(outcome);
  EXPECT_NE(json.find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(json.find("\"votes\":[1,0]"), std::string::npos);
  EXPECT_NE(json.find("\"reveals_withheld\":2"), std::string::npos);
  EXPECT_NE(json.find("\"producer_penalized\":true"), std::string::npos);
  EXPECT_NE(json.find("\"penalized\":[42]"), std::string::npos);
}

TEST(FaultInjection, LostRevealsExcludeOnlyTheirOwners) {
  // A participant whose key reveal never reaches the producer sits the
  // round out; everyone else proceeds, and its bids wait for a later
  // preamble.
  const ConsensusParams consensus = params();
  LedgerProtocol protocol(consensus);
  Rng rng(3);
  Participant lucky(rng);
  Participant unlucky(rng);

  trace::WorkloadConfig wc;
  wc.num_requests = 6;
  wc.num_offers = 4;
  const auto snap = trace::make_workload(wc, consensus.auction, rng);
  for (std::size_t i = 0; i < snap.requests.size(); ++i) {
    auto& owner = (i % 2 == 0) ? lucky : unlucky;
    protocol.mempool().submit(owner.submit_request(snap.requests[i], rng));
  }
  for (const auto& o : snap.offers) {
    protocol.mempool().submit(lucky.submit_offer(o, rng));
  }

  // Only `lucky` reveals.
  const auto outcome = protocol.run_round({&lucky}, /*verifiers=*/1, 0);
  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.snapshot.requests.size(), 3u);  // only lucky's requests
  EXPECT_EQ(outcome.snapshot.offers.size(), 4u);
  EXPECT_EQ(unlucky.pending_bids(), 3u);  // will resubmit later
}

}  // namespace
}  // namespace decloud::ledger
