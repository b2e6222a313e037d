#include "sim/simulation.hpp"

#include "common/ensure.hpp"
#include "ledger/codec.hpp"
#include "obs/sink.hpp"

namespace decloud::sim {

Simulation::Simulation(SimulationConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      network_(config_.num_miners + config_.num_participants, config_.latency, queue_, rng_) {
  DECLOUD_EXPECTS(config_.num_miners > 0);
  network_.set_fault_injector(config_.fault);

  for (std::size_t i = 0; i < config_.num_miners; ++i) {
    miners_.push_back(std::make_unique<MinerNode>(NodeId(i), network_, config_.consensus,
                                                  config_.timing, config_.num_miners));
    network_.attach(NodeId(i), [m = miners_.back().get()](NodeId from, const Message& msg) {
      m->on_message(from, msg);
    });
  }
  for (std::size_t i = 0; i < config_.num_participants; ++i) {
    const NodeId id(config_.num_miners + i);
    participants_.push_back(std::make_unique<ParticipantNode>(
        id, network_, config_.consensus.difficulty_bits, rng_));
    network_.attach(id, [p = participants_.back().get()](NodeId from, const Message& msg) {
      p->on_message(from, msg);
    });
  }
}

RoundStats Simulation::run_round(std::size_t producer_index, SimTime collect_ms) {
  DECLOUD_EXPECTS(producer_index < miners_.size());
  obs::SpanScope span(config_.sink, "sim.round");
  RoundStats stats;
  const std::size_t messages_before = network_.messages_sent();
  const SimTime start = queue_.now();

  // Submission phase: every participant seals and broadcasts its queued
  // bids now; the producer starts mining after the collection window.
  for (auto& p : participants_) p->submit_queued(rng_);
  queue_.schedule_in(collect_ms, [this, producer_index] {
    miners_[producer_index]->produce_block(static_cast<Time>(queue_.now()));
  });

  queue_.run();  // to quiescence: mining, reveals, body, votes, appends

  MinerNode& producer = *miners_[producer_index];
  for (const auto& v : producer.votes()) {
    (v.accept ? stats.accept_votes : stats.reject_votes) += 1;
  }
  stats.messages = network_.messages_sent() - messages_before;
  stats.round_ms = queue_.now() - start;

  // Authoritative outcome: every miner appended the same block.
  stats.accepted = producer.last_block().has_value();
  for (const auto& m : miners_) {
    stats.accepted = stats.accepted && m->chain().height() == producer.chain().height() &&
                     m->chain().tip_hash() == producer.chain().tip_hash();
  }
  if (stats.accepted) {
    const ledger::Block& block = *producer.last_block();
    const auto opened = ledger::Miner::open_block(block.preamble, block.body.revealed_keys);
    stats.snapshot = opened.snapshot;
    stats.result = ledger::decode_allocation(
        {block.body.allocation.data(), block.body.allocation.size()},
        opened.snapshot.requests.size(), opened.snapshot.offers.size());
  }
  span.add_work(stats.messages);
  if (config_.sink != nullptr) {
    obs::MetricsRegistry& m = config_.sink->metrics();
    m.counter("sim.rounds").add(1);
    m.counter(stats.accepted ? "sim.rounds_accepted" : "sim.rounds_rejected").add(1);
    m.counter("sim.messages").add(stats.messages);
    m.counter("sim.accept_votes").add(stats.accept_votes);
    m.counter("sim.reject_votes").add(stats.reject_votes);
    m.counter("sim.matches").add(stats.result.matches.size());
    m.gauge("sim.welfare").add(stats.result.welfare);
    // Simulated protocol latency, not wall time: round_ms comes off the
    // deterministic event queue.
    m.histogram("sim.round_ms", 0.0, 8000.0, 16).add(static_cast<double>(stats.round_ms));
  }
  return stats;
}

}  // namespace decloud::sim
