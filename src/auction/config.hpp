// Tunable parameters of the DeCloud mechanism.
#pragma once

#include <cstddef>

namespace decloud::auction {

/// Configuration for one allocation round.  Defaults reproduce the paper's
/// evaluation setup; the ablation benches sweep these.
struct AuctionConfig {
  /// Quality-of-match admission ratio θ for the best-offer set: an offer
  /// joins best_r when q_(r,o) ≥ θ · q_(r,best).  Smaller θ yields larger,
  /// more-merged clusters.
  double best_offer_ratio = 0.9;

  /// Hard cap on |best_r| — keeps cluster offer-sets (and the subset
  /// lattice of Algorithm 2) small.
  std::size_t max_best_offers = 4;

  /// Market flexibility f ∈ (0, 1]: a non-strict resource (σ < 1) is
  /// satisfiable by an offer carrying at least f·ρ_(r,k).  f = 1 is the
  /// paper's inflexible scenario (client always gets 100 % of the request);
  /// Fig. 5d uses f = 0.8.
  double flexibility = 1.0;

  /// When true (DeCloud), trade reduction and verifiable randomization run,
  /// making the auction DSIC.  When false, the mechanism degrades into the
  /// paper's non-truthful greedy benchmark: every tentative match trades
  /// and no price-setter is excluded.
  bool truthful = true;

  /// Worker threads for the matching pipeline (the per-request
  /// CandidateIndex best-offer queries fan out; everything downstream of
  /// cluster folding stays serial and ordered).  0 = one worker per
  /// hardware thread, 1 = fully serial path.  The RoundResult is
  /// byte-identical for every value — the ledger's collective verification
  /// replays allocations, so miners with different core counts must agree
  /// (see DESIGN.md, "Threading model & determinism").
  std::size_t threads = 0;

  /// Ablation switch for the paper's key welfare optimization: when true
  /// (default), price-compatible clusters share a clearing price inside
  /// mini-auctions (Algorithm 3), so one trade reduction covers many
  /// clusters.  When false, every cluster clears alone and pays its own
  /// reduction — quantifying how much the mini-auction grouping saves
  /// (bench/ablation_miniauction).
  bool group_mini_auctions = true;
};

}  // namespace decloud::auction
