#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "auction/verify.hpp"
#include "trace/workload.hpp"

namespace decloud::sim {
namespace {

SimulationConfig small_config() {
  SimulationConfig sc;
  sc.num_miners = 3;
  sc.num_participants = 4;
  sc.consensus.difficulty_bits = 8;
  return sc;
}

void inject_workload(Simulation& sim, std::size_t requests, std::size_t offers,
                     std::uint64_t seed) {
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

TEST(Simulation, FullRoundReachesConsensus) {
  Simulation sim(small_config());
  inject_workload(sim, 12, 6, 1);
  const RoundStats stats = sim.run_round(0);
  EXPECT_TRUE(stats.accepted);
  EXPECT_EQ(stats.accept_votes, 3u);
  EXPECT_EQ(stats.reject_votes, 0u);
  EXPECT_EQ(stats.snapshot.requests.size(), 12u);
  EXPECT_EQ(stats.snapshot.offers.size(), 6u);
  EXPECT_GT(stats.round_ms, 0);
  EXPECT_GT(stats.messages, 0u);
}

TEST(Simulation, OnChainAllocationSatisfiesInvariants) {
  SimulationConfig sc = small_config();
  Simulation sim(sc);
  inject_workload(sim, 20, 10, 2);
  const RoundStats stats = sim.run_round(0);
  ASSERT_TRUE(stats.accepted);
  EXPECT_TRUE(
      auction::verify_invariants(stats.snapshot, stats.result, sc.consensus.auction).ok());
}

TEST(Simulation, AllMinersConvergeOnSameChain) {
  Simulation sim(small_config());
  inject_workload(sim, 10, 5, 3);
  ASSERT_TRUE(sim.run_round(0).accepted);
  const auto tip = sim.miner(0).chain().tip_hash();
  for (std::size_t m = 1; m < 3; ++m) {
    EXPECT_EQ(sim.miner(m).chain().height(), 1u);
    EXPECT_EQ(sim.miner(m).chain().tip_hash(), tip);
  }
}

TEST(Simulation, MultipleRoundsWithRotatingProducers) {
  Simulation sim(small_config());
  for (std::size_t round = 0; round < 3; ++round) {
    inject_workload(sim, 8, 4, 10 + round);
    const RoundStats stats = sim.run_round(round % 3);
    EXPECT_TRUE(stats.accepted) << "round " << round;
  }
  EXPECT_EQ(sim.miner(0).chain().height(), 3u);
}

TEST(Simulation, EmptyRoundProducesEmptyBlock) {
  Simulation sim(small_config());
  const RoundStats stats = sim.run_round(0);
  EXPECT_TRUE(stats.accepted);
  EXPECT_TRUE(stats.result.matches.empty());
  EXPECT_TRUE(stats.snapshot.requests.empty());
}

TEST(Simulation, RoundTimeCoversMiningAndReveal) {
  SimulationConfig sc = small_config();
  sc.timing.reveal_wait_ms = 500;
  Simulation sim(sc);
  inject_workload(sim, 6, 3, 4);
  const RoundStats stats = sim.run_round(0, /*collect_ms=*/200);
  ASSERT_TRUE(stats.accepted);
  // Collection window + reveal wait are hard lower bounds.
  EXPECT_GT(stats.round_ms, 700);
}

TEST(Simulation, ByzantineBodyIsRejectedByVerifiers) {
  // A forged body (tampered allocation bytes) injected by the producer
  // node id must be voted down and no chain advances.
  SimulationConfig sc = small_config();
  Simulation sim(sc);
  inject_workload(sim, 6, 3, 5);

  // Run the honest protocol up to the preamble: we replicate produce_block
  // by hand so we can forge the body afterwards.
  for (std::size_t i = 0; i < sim.num_participants(); ++i) {
    sim.participant(i).submit_queued(sim.rng());
  }
  sim.queue().run();  // deliver all sealed bids

  ledger::Miner producer(sc.consensus);
  // Assemble a preamble over everything miner 0 would have pooled; mine it.
  // (We cannot reach into MinerNode's mempool, so mine over an empty set
  // and forge the body — verifiers must still reject the bad bytes.)
  const ledger::BlockPreamble preamble =
      producer.mine_preamble({}, sim.miner(0).chain().tip_hash(), 0, 0);
  ledger::BlockBody body = producer.compute_body(preamble, {});
  body.allocation.push_back(0xde);  // forged trailing bytes

  sim.network().broadcast(NodeId(0), PreambleMsg{preamble});
  sim.queue().run();
  sim.network().broadcast(NodeId(0), BodyMsg{0, body});
  sim.queue().run();

  for (std::size_t m = 1; m < 3; ++m) {
    EXPECT_EQ(sim.miner(m).chain().height(), 0u) << "miner " << m << " accepted a forged body";
  }
}

}  // namespace
}  // namespace decloud::sim
