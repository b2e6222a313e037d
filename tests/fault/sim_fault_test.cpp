// Injected network faults on the simulated overlay: deterministic drops
// and payload-driven delays, and their interaction with a full protocol
// round.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "sim/simulation.hpp"
#include "trace/workload.hpp"

namespace decloud::sim {
namespace {

Message probe() { return VoteMsg{.height = 1, .accept = true, .voter = NodeId(0)}; }

TEST(NetworkFault, DropFaultEatsTheMessageAndCounts) {
  const fault::FaultInjector injector(fault::FaultPlan::parse("drop_message:index=0"), 3);
  Rng rng(1);
  EventQueue queue;
  Network net(2, LatencyConfig{.base_ms = 10, .jitter_ms = 0}, queue, rng);
  net.set_fault_injector(&injector);
  int delivered = 0;
  net.attach(NodeId(0), [](NodeId, const Message&) {});
  net.attach(NodeId(1), [&](NodeId, const Message&) { ++delivered; });

  net.send(NodeId(0), NodeId(1), probe());  // message 0: dropped by the plan
  net.send(NodeId(0), NodeId(1), probe());  // message 1: delivered
  queue.run();

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_fault_dropped(), 1u);
}

TEST(NetworkFault, DelayFaultAddsThePayloadToLinkLatency) {
  const fault::FaultInjector injector(
      fault::FaultPlan::parse("delay_message:payload=500:index=0"), 3);
  Rng rng(1);
  EventQueue queue;
  Network net(2, LatencyConfig{.base_ms = 10, .jitter_ms = 0}, queue, rng);
  net.set_fault_injector(&injector);
  net.attach(NodeId(0), [](NodeId, const Message&) {});
  std::vector<SimTime> deliveries;
  net.attach(NodeId(1), [&](NodeId, const Message&) { deliveries.push_back(queue.now()); });

  net.send(NodeId(0), NodeId(1), probe());  // message 0: +500 ms
  net.send(NodeId(0), NodeId(1), probe());  // message 1: nominal latency
  queue.run();

  const SimTime link = net.link_latency(NodeId(0), NodeId(1));
  ASSERT_EQ(deliveries.size(), 2u);
  // The event queue delivers in timestamp order: the delayed message 0
  // arrives after the prompt message 1.
  EXPECT_EQ(deliveries[0], link);
  EXPECT_EQ(deliveries[1], link + 500);
  EXPECT_EQ(net.messages_fault_delayed(), 1u);
  EXPECT_EQ(net.messages_dropped(), 0u);
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

TEST(SimulationFault, InjectedDropsReplayIdenticallyAndNeverFork) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("drop_message:p=0.15");
  const auto run = [&plan](const fault::FaultInjector* injector) {
    SimulationConfig sc;
    sc.num_miners = 3;
    sc.num_participants = 4;
    sc.consensus.difficulty_bits = 8;
    sc.seed = 5;
    sc.fault = injector;
    Simulation sim(sc);
    inject(sim, 8, 4, 5);
    const RoundStats stats = sim.run_round(0);

    // Whatever the plan did, no two miners may disagree at equal height
    // (the tip commits to every earlier block through prev_hash).
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t b = a + 1; b < 3; ++b) {
        const auto& ca = sim.miner(a).chain();
        const auto& cb = sim.miner(b).chain();
        if (ca.height() != cb.height()) continue;
        EXPECT_EQ(ca.tip_hash(), cb.tip_hash());
      }
    }
    struct Result {
      bool accepted;
      std::size_t messages;
      std::size_t dropped;
      std::size_t fault_dropped;
    };
    return Result{stats.accepted, stats.messages, sim.network().messages_dropped(),
                  sim.network().messages_fault_dropped()};
  };

  const fault::FaultInjector chaos(plan, 17);
  const fault::FaultInjector replay(plan, 17);
  const auto first = run(&chaos);
  const auto second = run(&replay);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.fault_dropped, second.fault_dropped);
  EXPECT_GT(first.fault_dropped, 0u);  // the plan engaged
  // Without the loss model every drop is an injected one.
  EXPECT_EQ(first.dropped, first.fault_dropped);

  const auto clean = run(nullptr);
  EXPECT_EQ(clean.fault_dropped, 0u);
  EXPECT_EQ(clean.dropped, 0u);  // the default overlay stays reliable
}

}  // namespace
}  // namespace decloud::sim
