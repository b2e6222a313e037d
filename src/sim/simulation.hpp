// End-to-end protocol simulation driver.
//
// Builds a full-mesh overlay of miners and participants, injects a
// workload, runs rounds of the two-phase bid exposure protocol through the
// event queue, and reports per-round statistics (phase timings, message
// counts, consensus outcome, allocation economics).
#pragma once

#include <memory>
#include <vector>

#include "auction/allocation.hpp"
#include "sim/node.hpp"

namespace decloud::obs {
class MetricsSink;
}

namespace decloud::sim {

/// Configuration of a simulated DeCloud deployment.
struct SimulationConfig {
  std::size_t num_miners = 4;
  std::size_t num_participants = 8;
  LatencyConfig latency;
  MinerNode::Timing timing;
  /// Shared by every miner.  A node appends a block once
  /// ⌈consensus.quorum · num_miners⌉ accept votes are in, the producer's
  /// own included: unanimity at the default quorum.
  ledger::ConsensusParams consensus;
  std::uint64_t seed = 1;
  /// Optional deterministic fault injector (not owned, may be null);
  /// attached to the overlay so a plan can drop/delay protocol messages.
  const fault::FaultInjector* fault = nullptr;
  /// Optional observability sink (not owned, may be null).  The simulation
  /// is single-threaded, so one sink serves the whole deployment: each
  /// round records a "sim.round" span plus consensus/economics counters
  /// and a simulated-latency histogram.
  obs::MetricsSink* sink = nullptr;
};

/// Statistics of one protocol round.
struct RoundStats {
  bool accepted = false;
  /// Simulated milliseconds from round start to chain append on the
  /// producer.
  SimTime round_ms = 0;
  std::size_t messages = 0;
  std::size_t accept_votes = 0;
  std::size_t reject_votes = 0;
  /// Decoded allocation of the round (valid when accepted).
  auction::RoundResult result;
  auction::MarketSnapshot snapshot;
};

/// Owns the queue, the overlay, and the node actors.
class Simulation {
 public:
  explicit Simulation(SimulationConfig config);

  /// Node handles for workload injection.  Participant i is node
  /// (num_miners + i) on the overlay.
  [[nodiscard]] ParticipantNode& participant(std::size_t i) { return *participants_[i]; }
  [[nodiscard]] MinerNode& miner(std::size_t i) { return *miners_[i]; }
  [[nodiscard]] std::size_t num_participants() const { return participants_.size(); }
  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Runs one protocol round with miner `producer_index` producing: the
  /// participants submit queued bids, the producer mines over whatever
  /// reached its mempool by `collect_ms`, and the round runs to
  /// quiescence.
  RoundStats run_round(std::size_t producer_index, SimTime collect_ms = 200);

 private:
  SimulationConfig config_;
  Rng rng_;
  EventQueue queue_;
  Network network_;
  std::vector<std::unique_ptr<MinerNode>> miners_;
  std::vector<std::unique_ptr<ParticipantNode>> participants_;
};

}  // namespace decloud::sim
