// Multi-round market orchestration with resubmission.
//
// Bids that fail to match in one block are not lost: "Participants, whose
// bids were refused, can resubmit their bids" (Section III-B), and offers
// whose agreements are denied are flagged for resubmission by the smart
// contract.  The paper's "online appearance to users" (Section VI) emerges
// from this loop: rounds correspond to block generation, and a bid's
// latency is the number of rounds it waits until allocation.
//
// MarketOrchestrator drives the in-process protocol for many rounds,
// automatically resubmitting unmatched bids (up to a configurable retry
// budget) and recording per-bid allocation latency — the statistic a
// deployment would monitor.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "ledger/protocol.hpp"

namespace decloud::ledger {

/// Orchestration parameters.
struct MarketConfig {
  /// Rounds a bid stays in the resubmission loop before being abandoned.
  /// 0 means a bid gets exactly ONE round: it is submitted once and, if
  /// unmatched, abandoned immediately (no resubmission).
  std::size_t max_resubmissions = 3;
  /// Verifier miners participating each round.
  std::size_t num_verifiers = 2;
  /// Ignored.  Every miner, producer and verifiers alike, ranks best
  /// offers through a CandidateIndex built fresh for each block; the
  /// cross-round index cache this switched on is gone.  The field stays
  /// only because the gated benchmark (marketbench) still assigns it, and
  /// its next revision drops the assignment.
  bool reuse_candidate_index = true;
  ConsensusParams consensus;
};

/// Lifetime statistics of the orchestrated market.
struct MarketStats {
  std::size_t rounds = 0;
  std::size_t requests_submitted = 0;
  std::size_t requests_allocated = 0;
  std::size_t requests_abandoned = 0;
  std::size_t offers_submitted = 0;
  /// Offer age-outs.  Every in-flight offer re-enters the next round,
  /// matched or not (a match does not consume its capacity), until its
  /// attempts exceed max_resubmissions; it is counted here when it leaves
  /// the queue.  So this is not a count of unmatched offers: every offer
  /// that stays in the market long enough ages out, and an offer that a
  /// denial refund (deny_agreement) re-enters after it aged out can age
  /// out, and count, a second time.
  std::size_t offers_abandoned = 0;
  /// Bids (requests + offers) carried forward into a later round: every
  /// re-queue from an unmatched round, a rejected block, or a denial
  /// refund counts once.  This is the residue the streaming micro-epochs
  /// keep alive between closes (DESIGN.md §3h); its age is bounded by
  /// max_resubmissions.
  std::size_t bids_carried = 0;
  /// Byte-identical second copies of one sealed bid that the mempool
  /// refused.  Only the duplicate_sealed_bid fault makes such copies
  /// (equal to fault.duplicates_rejected): a client that re-submits a
  /// request id has it sealed again under a fresh nonce, so the mempool
  /// sees a new bid and nothing is counted here.
  std::size_t bids_duplicate_rejected = 0;
  /// Proposed agreements the client side denied (deny_agreement).  A
  /// denial un-counts the request's allocation — the match never executed
  /// — so requests_allocated and the latency histogram only ever describe
  /// allocations that stood.
  std::size_t agreements_denied = 0;
  Money total_welfare = 0.0;
  Money total_settled = 0.0;
  /// allocation_latency[k] = requests allocated in their (k+1)-th round.
  /// Invariant: Σ allocation_latency == requests_allocated (denials remove
  /// their entry again).
  std::vector<std::size_t> allocation_latency;

  /// requests_allocated / requests_submitted; defined as 0 (not NaN) for
  /// an empty market so dashboards can always render the rate.
  [[nodiscard]] double allocation_rate() const {
    return requests_submitted == 0
               ? 0.0
               : static_cast<double>(requests_allocated) /
                     static_cast<double>(requests_submitted);
  }
};

/// Drives LedgerProtocol across rounds with automatic resubmission.
class MarketOrchestrator {
 public:
  explicit MarketOrchestrator(MarketConfig config);

  /// Enqueues a request for the next round.  Ids must be unique across the
  /// orchestrator's lifetime (they key the latency bookkeeping).
  void submit(const auction::Request& request);
  /// Enqueues an offer for the next round.
  void submit(const auction::Offer& offer);

  /// Runs one block round over everything currently queued; unmatched bids
  /// re-queue automatically until their retry budget runs out.  Returns
  /// the protocol-level outcome.
  RoundOutcome run_round(Time now);

  /// Runs rounds until nothing is queued or `max_rounds` elapsed.
  void drain(std::size_t max_rounds, Time start_time = 0, Seconds round_interval = 600);

  /// Client-side denial of a Proposed agreement from the most recent
  /// accepted round (Section III-B: "deny ... notifies the provider to
  /// resubmit").  Applies the contract's reputational penalty, un-counts
  /// the request's allocation (requests_allocated and its latency-histogram
  /// entry revert; agreements_denied increments), and refunds the
  /// provider's offer its retry attempt — a denial is not the offer's
  /// fault, so its resubmission budget is untouched.  The denied request
  /// itself does NOT re-enter the queue (the client walked away).
  /// Call between rounds; returns false when the contract refuses (wrong
  /// state / unknown id) or the agreement is not from the latest round.
  bool deny_agreement(ContractId id);

  /// Attaches the market's hooks (ledger/hooks.hpp), forwarded to the
  /// protocol so every layer of a round reports into the same sink, ring
  /// and fault slice.  An engine passes ring shard + 1 (ring 0 is its
  /// control ring); events are stamped with the chain height, the
  /// market's own logical epoch.  Orchestrator-level faults: sealed-bid
  /// corruption, duplicate submission, and client-side agreement denial.
  void attach(const Hooks& hooks) {
    hooks_ = hooks;
    protocol_.attach(hooks);
  }

  [[nodiscard]] const MarketStats& stats() const { return stats_; }
  [[nodiscard]] const LedgerProtocol& protocol() const { return protocol_; }
  [[nodiscard]] std::size_t queued_bids() const {
    return pending_requests_.size() + pending_offers_.size();
  }


 private:
  struct PendingRequest {
    auction::Request request;
    std::size_t attempts = 0;
  };
  struct PendingOffer {
    auction::Offer offer;
    std::size_t attempts = 0;
  };
  /// Bookkeeping for one match of the latest accepted round, keyed by its
  /// agreement — what deny_agreement needs to revert the stats and refund
  /// the offer.
  struct MatchRecord {
    ClientId client;
    std::uint64_t request_id = 0;
    std::size_t request_attempt = 0;
    auction::Offer offer;          ///< copy, in case it aged out of the queue
    std::size_t offer_attempts = 0;  ///< the offer's attempts when it matched
  };

  MarketConfig config_;
  LedgerProtocol protocol_;
  Rng rng_{0x6d61726b6574ULL};
  Participant wallet_;  // one custodial wallet signs for the whole market
  std::deque<PendingRequest> pending_requests_;
  std::deque<PendingOffer> pending_offers_;
  std::unordered_map<ContractId, MatchRecord> last_round_matches_;
  MarketStats stats_;
  Hooks hooks_;
};

}  // namespace decloud::ledger
