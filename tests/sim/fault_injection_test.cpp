// Failure injection: the protocol under a lossy overlay.  Message loss
// must degrade the round gracefully (bids missing, consensus stalling) —
// never corrupt state or violate invariants on whatever does land.
#include <gtest/gtest.h>

#include "auction/verify.hpp"
#include "common/ensure.hpp"
#include "ledger/protocol.hpp"
#include "sim/simulation.hpp"
#include "trace/workload.hpp"

namespace decloud::sim {
namespace {

SimulationConfig lossy_config(double loss) {
  SimulationConfig sc;
  sc.num_miners = 3;
  sc.num_participants = 4;
  sc.consensus.difficulty_bits = 8;
  sc.latency.loss = loss;
  return sc;
}

void inject(Simulation& sim, std::size_t requests, std::size_t offers, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.num_requests = requests;
  wc.num_offers = offers;
  Rng rng(seed);
  const auto snap = trace::make_workload(wc, auction::AuctionConfig{}, rng);
  for (std::size_t i = 0; i < snap.requests.size(); ++i) {
    sim.participant(i % sim.num_participants()).enqueue_request(snap.requests[i]);
  }
  for (std::size_t i = 0; i < snap.offers.size(); ++i) {
    sim.participant(i % sim.num_participants()).enqueue_offer(snap.offers[i]);
  }
}

TEST(NetworkLoss, DropsAreCountedAndBounded) {
  Rng rng(1);
  EventQueue queue;
  Network net(4, {.base_ms = 5, .jitter_ms = 5, .loss = 0.5}, queue, rng);
  int delivered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    net.attach(NodeId(i), [&](NodeId, const Message&) { ++delivered; });
  }
  for (int i = 0; i < 100; ++i) {
    net.send(NodeId(0), NodeId(1), VoteMsg{.height = 0, .accept = true, .voter = NodeId(0)});
  }
  queue.run();
  EXPECT_EQ(net.messages_sent(), 100u);
  EXPECT_EQ(net.messages_dropped() + static_cast<std::size_t>(delivered), 100u);
  EXPECT_GT(net.messages_dropped(), 20u);  // ~50 expected
  EXPECT_LT(net.messages_dropped(), 80u);
}

TEST(NetworkLoss, InvalidLossRejected) {
  Rng rng(1);
  EventQueue queue;
  EXPECT_THROW(Network(2, {.loss = 1.0}, queue, rng), precondition_error);
  EXPECT_THROW(Network(2, {.loss = -0.1}, queue, rng), precondition_error);
}

TEST(FaultInjection, MildLossRoundStillSoundOnWhateverLands) {
  // 10 % loss: some bids/reveals vanish.  If a block is accepted at all,
  // its on-chain allocation must still satisfy every invariant over the
  // bids that made it in.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SimulationConfig sc = lossy_config(0.10);
    sc.seed = seed;
    Simulation sim(sc);
    inject(sim, 12, 6, seed);
    const RoundStats stats = sim.run_round(0);
    if (stats.accepted) {
      EXPECT_LE(stats.snapshot.requests.size(), 12u);
      const auto report =
          auction::verify_invariants(stats.snapshot, stats.result, sc.consensus.auction);
      EXPECT_TRUE(report.ok()) << (report.ok() ? "" : report.violations.front());
    }
    // Either way the simulation terminated and counted its losses.
    EXPECT_GT(sim.network().messages_sent(), 0u);
  }
}

TEST(FaultInjection, HeavyLossNeverForksTheChain) {
  // 40 % loss: consensus frequently fails (votes lost), but no two miners
  // may ever end up on different blocks at the same height.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SimulationConfig sc = lossy_config(0.40);
    sc.seed = seed * 7;
    Simulation sim(sc);
    inject(sim, 8, 4, seed);
    (void)sim.run_round(0);

    // Any two miners at equal height must agree.  The tip commits to every
    // earlier block through prev_hash, so equal tips mean equal chains.
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t b = a + 1; b < 3; ++b) {
        const auto& ca = sim.miner(a).chain();
        const auto& cb = sim.miner(b).chain();
        if (ca.height() != cb.height()) continue;
        EXPECT_EQ(ca.tip_hash(), cb.tip_hash())
            << "fork between miners " << a << " and " << b << " at height " << ca.height();
      }
    }
  }
}

TEST(FaultInjection, LostRevealsExcludeOnlyTheirOwners) {
  // A participant whose key-reveal broadcast is lost sits the round out;
  // everyone else proceeds.  (Deterministic check through the in-process
  // protocol: withholding reveals == losing those messages.)
  ledger::ConsensusParams params{.difficulty_bits = 8};
  ledger::LedgerProtocol protocol(params);
  Rng rng(3);
  ledger::Participant lucky(rng);
  ledger::Participant unlucky(rng);

  trace::WorkloadConfig wc;
  wc.num_requests = 6;
  wc.num_offers = 4;
  const auto snap = trace::make_workload(wc, params.auction, rng);
  for (std::size_t i = 0; i < snap.requests.size(); ++i) {
    auto& owner = (i % 2 == 0) ? lucky : unlucky;
    protocol.mempool().submit(owner.submit_request(snap.requests[i], rng));
  }
  for (const auto& o : snap.offers) {
    protocol.mempool().submit(lucky.submit_offer(o, rng));
  }

  // Only `lucky` reveals (unlucky's reveal messages all "got lost").
  const auto outcome = protocol.run_round({&lucky}, /*verifiers=*/1, 0);
  ASSERT_TRUE(outcome.block_accepted);
  EXPECT_EQ(outcome.snapshot.requests.size(), 3u);   // only lucky's requests
  EXPECT_EQ(outcome.snapshot.offers.size(), 4u);
  EXPECT_EQ(unlucky.pending_bids(), 3u);             // will resubmit later
}

}  // namespace
}  // namespace decloud::sim
