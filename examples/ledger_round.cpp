// Full decentralized rounds through LedgerProtocol: sealed bids in the
// mempool, proof-of-work preamble, temporary-key disclosure, allocation
// suggestion, collective verification and smart-contract agreements — the
// complete two-phase bid exposure protocol of Fig. 2.
#include <cstdio>
#include <vector>

#include "common/hex.hpp"
#include "ledger/protocol.hpp"
#include "trace/workload.hpp"

using namespace decloud;

int main() {
  constexpr std::size_t kParticipants = 8;
  constexpr std::size_t kVerifiers = 3;
  const ledger::ConsensusParams params;  // 12-bit PoW: ≈4k hash attempts per block
  ledger::LedgerProtocol protocol(params);

  Rng wallet_rng(7);
  std::vector<ledger::Participant> wallets;
  for (std::size_t i = 0; i < kParticipants; ++i) wallets.emplace_back(wallet_rng);
  std::vector<ledger::Participant*> participants;
  for (auto& w : wallets) participants.push_back(&w);

  std::printf("DeCloud ledger round — %zu participants, %zu verifiers, difficulty %u bits\n\n",
              kParticipants, kVerifiers, params.difficulty_bits);

  for (std::size_t round = 0; round < 3; ++round) {
    // Each participant seals its share of a fresh trace-driven workload
    // into the mempool.
    trace::WorkloadConfig wc;
    wc.num_requests = 16;
    wc.num_offers = 8;
    Rng rng(1000 + round);
    const auto snap = trace::make_workload(wc, params.auction, rng);
    for (std::size_t i = 0; i < snap.requests.size(); ++i) {
      protocol.mempool().submit(wallets[i % kParticipants].submit_request(snap.requests[i], rng));
    }
    for (std::size_t i = 0; i < snap.offers.size(); ++i) {
      protocol.mempool().submit(wallets[i % kParticipants].submit_offer(snap.offers[i], rng));
    }

    const ledger::RoundOutcome outcome =
        protocol.run_round(participants, kVerifiers, static_cast<Time>(600 * round));

    std::size_t accepts = 0;
    for (const bool vote : outcome.verifier_votes) accepts += vote ? 1 : 0;
    std::printf("round %zu\n", round);
    std::printf("  consensus     : %s (%zu accept / %zu reject votes)\n",
                outcome.block_accepted ? "block accepted" : "block REJECTED", accepts,
                outcome.verifier_votes.size() - accepts);
    if (outcome.block_accepted) {
      const auto& block = outcome.block;
      std::printf("  block hash    : %s…\n", to_hex({block.preamble.hash().data(), 8}).c_str());
      std::printf("  sealed bids   : %zu (merkle-committed in the preamble)\n",
                  block.preamble.sealed_bids.size());
      std::printf("  allocation    : %zu matches, welfare %.4f, %zu trades reduced\n",
                  outcome.result.matches.size(), outcome.result.welfare,
                  outcome.result.reduced_trades);
      std::printf("  settlement    : %.4f paid == %.4f received\n",
                  outcome.result.total_payments, outcome.result.total_revenue);
      std::printf("  agreements    : %zu registered on the contract\n",
                  outcome.agreements.size());
    }
    std::printf("\n");
  }

  std::printf("chain height: %llu\n", static_cast<unsigned long long>(protocol.chain().height()));
  return 0;
}
