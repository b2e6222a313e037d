// Allocation invariants — the structural and economic checks of Section
// III-B ("They also verify the accuracy of the allocation algorithm
// execution") that hold for any sound RoundResult against its snapshot.
//
// Miners accept a block by re-running the mechanism and comparing bytes
// (ledger::Miner::verify_body), the one replay.  verify_invariants checks,
// without any replay, that a result is economically sound: constraints
// (5), (7), (8), (10), (11), individual rationality and strong budget
// balance.  The DECLOUD_AUDIT build runs it on every mechanism round
// (audit::check_round).
#pragma once

#include <string>
#include <vector>

#include "auction/allocation.hpp"
#include "auction/config.hpp"

namespace decloud::auction {

/// Outcome of a verification pass.  `ok()` is true when no violation was
/// found; otherwise `violations` lists human-readable findings.
struct VerificationReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Checks the structural and economic invariants of a result.
/// `check_payments` disables the IR/BB checks for benchmark-mode results
/// (which carry no payments).
[[nodiscard]] VerificationReport verify_invariants(const MarketSnapshot& snapshot,
                                                   const RoundResult& result,
                                                   const AuctionConfig& config,
                                                   bool check_payments = true);

}  // namespace decloud::auction
