// Market lifecycle: multi-round operation with resubmission, reputation
// and collective verification — the "online appearance to users" of
// Section VI emerging from block rounds.
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ledger/market.hpp"
#include "trace/workload.hpp"

using namespace decloud;

int main() {
  ledger::MarketConfig mc;
  mc.consensus.difficulty_bits = 10;
  mc.max_resubmissions = 3;
  mc.num_verifiers = 2;
  ledger::MarketOrchestrator market(mc);

  // A day of edge demand arriving in two waves.
  Rng rng(2024);
  trace::WorkloadConfig wc;
  wc.num_requests = 30;
  wc.num_offers = 12;
  const auto wave1 = trace::make_workload(wc, mc.consensus.auction, rng);
  for (const auto& r : wave1.requests) market.submit(r);
  for (const auto& o : wave1.offers) market.submit(o);

  std::printf("Market lifecycle — wave 1: %zu requests, %zu offers queued\n",
              wave1.requests.size(), wave1.offers.size());
  // The chain keeps only its height and tip hash, so the example holds on
  // to the verifier votes of the last accepted block for the end.
  std::optional<std::vector<bool>> tip_votes;
  const auto run_round = [&](Time now) {
    ledger::RoundOutcome outcome = market.run_round(now);
    if (outcome.block_accepted) tip_votes = std::move(outcome.verifier_votes);
  };
  run_round(0);
  std::printf("after round 1: %zu allocated, %zu bids re-queued\n",
              market.stats().requests_allocated, market.queued_bids());

  // Second wave brings more supply; the resubmitted leftovers clear.
  wc.num_requests = 10;
  wc.num_offers = 20;
  const auto wave2 = trace::make_workload(wc, mc.consensus.auction, rng);
  for (const auto& r : wave2.requests) market.submit(r);
  for (const auto& o : wave2.offers) market.submit(o);
  // MarketOrchestrator::drain, keeping each accepted block.
  for (std::size_t round = 0; round < 6 && market.queued_bids() > 0; ++round) {
    run_round(static_cast<Time>(600 * (round + 1)));
  }

  const auto& st = market.stats();
  std::printf("\nafter %zu rounds:\n", st.rounds);
  std::printf("  allocated        : %zu/%zu (%.0f%%), abandoned %zu\n", st.requests_allocated,
              st.requests_submitted, 100.0 * st.allocation_rate(), st.requests_abandoned);
  std::printf("  welfare          : %.4f, settled %.4f\n", st.total_welfare, st.total_settled);
  std::printf("  latency histogram:");
  for (std::size_t k = 0; k < st.allocation_latency.size(); ++k) {
    std::printf("  round+%zu: %zu", k, st.allocation_latency[k]);
  }
  std::printf("\n  chain height     : %llu\n",
              static_cast<unsigned long long>(market.protocol().chain().height()));

  // Every verifier re-opened the tip block and re-ran the auction; the
  // block stood because their votes reached the quorum.
  if (tip_votes) {
    std::size_t accepts = 0;
    for (const bool vote : *tip_votes) accepts += vote ? 1 : 0;
    std::printf("\ntip block: accepted by %zu of %zu verifiers, each re-running the auction\n",
                accepts, tip_votes->size());
  }
  return 0;
}
