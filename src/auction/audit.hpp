// Mechanism-invariant audits for the auction core (DECLOUD_AUDIT).
//
// Each function independently re-derives a paper property and throws
// audit::audit_error when the mechanism's actual output violates it:
//
//   * check_mini_auction — after every mini-auction (Algorithm 4):
//       - the clearing price equals min over the auction's live clusters
//         of min(v̂_z, ĉ_{z'+1})  (Eq. 20, SBBA price rule);
//       - individual rationality: every finalized match clears at a price
//         inside the traders' *reported* normalized bounds
//         (ĉ_o ≤ p ≤ v̂_r), and the raw payment never exceeds the
//         request's reported valuation (Theorem: IR, Section IV);
//       - the excluded price-setter (and every same-client/provider bid in
//         the auction) is never allocated (trade reduction, Theorem: DSIC);
//   * check_round — after the full round, the one round checker:
//       - every verify_invariants check (constraints (5), (7), (8), (10),
//         (11), IR and strong budget balance within 1e-6), failing on the
//         first violation; payment checks follow config.truthful, so the
//         non-truthful benchmark path is checked for feasibility only;
//       - strong budget balance: Σ client payments == Σ provider revenues
//         EXACTLY (bitwise — revenues are sums of the same payment terms
//         in the same order, so fp rounding cannot diverge), and the
//         per-participant settlement vectors reconcile exactly with the
//         match list;
//       - every payment is finite, and reduced ≤ tentative trades.
//
// See common/audit.hpp for the enable story (`audit::kEnabled`).
#pragma once

#include <cstddef>
#include <vector>

#include "auction/allocation.hpp"
#include "auction/config.hpp"
#include "auction/miniauction.hpp"
#include "auction/trade_reduction.hpp"
#include "common/audit.hpp"

namespace decloud::auction::audit {

using decloud::audit::audit_error;
using decloud::audit::kEnabled;

/// Audits one processed mini-auction.  `cluster_done_before` and
/// `tradeable_before` are the cluster-done mask and per-cluster
/// tradeable() flags as they were when the price was determined (the
/// mechanism clears `tentative` during processing, which would erase the
/// tradeable bit); `first_match` is the size of result.matches before this
/// auction ran — [first_match, result.matches.size()) are the matches it
/// finalized.
void check_mini_auction(const MarketSnapshot& snapshot,
                        const std::vector<PricedCluster>& priced, const MiniAuction& auction,
                        const PriceQuote& quote, const std::vector<char>& cluster_done_before,
                        const std::vector<char>& tradeable_before, const RoundResult& result,
                        std::size_t first_match);

/// Audits the completed round result against its snapshot under the
/// configuration that produced it.
void check_round(const MarketSnapshot& snapshot, const RoundResult& result,
                 const AuctionConfig& config);

}  // namespace decloud::auction::audit
