#include "ledger/market.hpp"

#include <utility>

#include "common/ensure.hpp"
#include "obs/sink.hpp"

namespace decloud::ledger {

MarketOrchestrator::MarketOrchestrator(MarketConfig config)
    : config_(std::move(config)),
      protocol_(config_.consensus),
      wallet_(rng_) {}

void MarketOrchestrator::submit(const auction::Request& request) {
  auction::validate(request);
  pending_requests_.push_back({request, 0});
  ++stats_.requests_submitted;
}

void MarketOrchestrator::submit(const auction::Offer& offer) {
  auction::validate(offer);
  pending_offers_.push_back({offer, 0});
  ++stats_.offers_submitted;
}

RoundOutcome MarketOrchestrator::run_round(Time now) {
  DECLOUD_EXPECTS_MSG(now >= 0, "simulated time is non-negative seconds since epoch");
  // Seal and submit everything queued; remember which attempt each bid is
  // on so we can histogram allocation latency afterwards.
  std::unordered_map<std::uint64_t, std::size_t> request_attempt;
  std::vector<PendingRequest> in_flight_requests(pending_requests_.begin(),
                                                 pending_requests_.end());
  std::vector<PendingOffer> in_flight_offers(pending_offers_.begin(), pending_offers_.end());
  pending_requests_.clear();
  pending_offers_.clear();

  // Seal-time fault hooks: a kCorruptSealedBid fault tampers with the
  // ciphertext after signing (the protocol drops the bid at its signature
  // check); a kDuplicateSealedBid fault submits the bid twice (the mempool
  // refuses the second copy).  Sites are (round, shard, bid index).
  const std::uint64_t fault_round = protocol_.chain().height();
  std::uint64_t bid_index = 0;
  const auto submit_sealed = [&](SealedBid sealed) {
    const fault::FaultSite site{fault_round, hooks_.shard, bid_index++, 0};
    if (hooks_.fire(fault::FaultKind::kCorruptSealedBid, site, fault_round)) {
      if (sealed.ciphertext.empty()) {
        sealed.ciphertext.push_back(0xFF);
      } else {
        sealed.ciphertext.front() ^= 0xFF;
      }
      hooks_.count("fault.bids_corrupted");
    }
    const bool duplicate = hooks_.fire(fault::FaultKind::kDuplicateSealedBid, site, fault_round);
    if (protocol_.mempool().submit(sealed) == Mempool::Admission::kDuplicate) {
      ++stats_.bids_duplicate_rejected;
    }
    if (duplicate && protocol_.mempool().submit(sealed) == Mempool::Admission::kDuplicate) {
      ++stats_.bids_duplicate_rejected;
      hooks_.count("fault.duplicates_rejected");
    }
  };
  {
    obs::SpanScope span(hooks_.sink, "seal");
    for (const auto& pr : in_flight_requests) {
      request_attempt[pr.request.id.value()] = pr.attempts;
      submit_sealed(wallet_.submit_request(pr.request, rng_));
    }
    for (const auto& po : in_flight_offers) {
      submit_sealed(wallet_.submit_offer(po.offer, rng_));
    }
    span.add_work(in_flight_requests.size() + in_flight_offers.size());
  }

  RoundOutcome outcome = protocol_.run_round({&wallet_}, config_.num_verifiers, now);
  ++stats_.rounds;
  if (!outcome.block_accepted) {
    // A rejected block consumes nobody's bids: re-queue everything as-is.
    // The carry is free of retry-budget charge — the round never happened
    // for these bids — but it still counts as residue.
    const std::size_t carried = in_flight_requests.size() + in_flight_offers.size();
    stats_.bids_carried += carried;
    for (auto& pr : in_flight_requests) pending_requests_.push_back(pr);
    for (auto& po : in_flight_offers) pending_offers_.push_back(po);
    if (carried > 0) {
      hooks_.record({journal::EventKind::kResidueCarried, 0, fault_round, carried,
                     static_cast<std::uint64_t>(journal::CarryCause::kBlockRejected), 0});
    }
    return outcome;
  }

  stats_.total_welfare += outcome.result.welfare;
  stats_.total_settled += outcome.result.total_payments;

  // One kTradeStruck per accepted match, in allocation order: the payment
  // is the Eq. 19 charge, unit_price the Eq. 20 mini-auction clearing
  // price the telemetry histograms for dispersion.
  for (const auction::Match& m : outcome.result.matches) {
    hooks_.record({journal::EventKind::kTradeStruck, 0, fault_round, m.request, m.offer, 0,
                   m.payment, m.unit_price});
  }
  if (outcome.result.reduced_trades > 0) {
    hooks_.record({journal::EventKind::kTradeReduced, 0, fault_round,
                   outcome.result.reduced_trades, outcome.result.tentative_trades, 0});
  }

  // Remember the accepted matches so deny_agreement can revert them; only
  // the latest round's agreements are deniable through the orchestrator.
  last_round_matches_.clear();
  {
    std::unordered_map<std::uint64_t, std::size_t> offer_attempt;
    for (const auto& po : in_flight_offers) offer_attempt[po.offer.id.value()] = po.attempts;
    for (std::size_t m = 0; m < outcome.result.matches.size(); ++m) {
      if (m >= outcome.agreements.size()) break;  // defensive: align by index
      const auto& match = outcome.result.matches[m];
      const auction::Request& req = outcome.snapshot.requests[match.request];
      const auction::Offer& off = outcome.snapshot.offers[match.offer];
      MatchRecord record;
      record.client = req.client;
      record.request_id = req.id.value();
      const auto req_attempt_it = request_attempt.find(req.id.value());
      record.request_attempt =
          req_attempt_it == request_attempt.end() ? 0 : req_attempt_it->second;
      record.offer = off;
      const auto attempt_it = offer_attempt.find(off.id.value());
      record.offer_attempts = attempt_it == offer_attempt.end() ? 0 : attempt_it->second;
      last_round_matches_.emplace(outcome.agreements[m], record);
    }
  }

  // Which request ids got matched?
  std::vector<char> matched(outcome.snapshot.requests.size(), 0);
  for (const auto& m : outcome.result.matches) matched[m.request] = 1;

  std::unordered_map<std::uint64_t, char> matched_ids;
  for (std::size_t i = 0; i < outcome.snapshot.requests.size(); ++i) {
    if (matched[i]) matched_ids[outcome.snapshot.requests[i].id.value()] = 1;
  }

  std::size_t resubmitted = 0;
  std::size_t requests_abandoned_this_round = 0;
  std::size_t offers_abandoned_this_round = 0;
  for (auto& pr : in_flight_requests) {
    const auto id = pr.request.id.value();
    if (matched_ids.contains(id)) {
      ++stats_.requests_allocated;
      const std::size_t attempt = request_attempt[id];
      if (stats_.allocation_latency.size() <= attempt) {
        stats_.allocation_latency.resize(attempt + 1, 0);
      }
      ++stats_.allocation_latency[attempt];
    } else if (++pr.attempts <= config_.max_resubmissions) {
      pending_requests_.push_back(pr);  // resubmit next round
      ++resubmitted;
      ++stats_.bids_carried;
    } else {
      ++stats_.requests_abandoned;
      ++requests_abandoned_this_round;
    }
  }
  // Offers re-enter while their windows stay useful; the retry budget
  // bounds that too.
  for (auto& po : in_flight_offers) {
    if (++po.attempts <= config_.max_resubmissions) {
      pending_offers_.push_back(po);
      ++resubmitted;
      ++stats_.bids_carried;
    } else {
      ++stats_.offers_abandoned;
      ++offers_abandoned_this_round;
    }
  }
  if (hooks_.sink != nullptr) {
    hooks_.sink->metrics()
        .histogram("market.round_welfare", 0.0, 64.0, 16)
        .add(outcome.result.welfare);
  }
  if (resubmitted > 0) {
    hooks_.record({journal::EventKind::kResidueCarried, 0, fault_round, resubmitted,
                   static_cast<std::uint64_t>(journal::CarryCause::kUnmatched), 0});
  }
  if (requests_abandoned_this_round + offers_abandoned_this_round > 0) {
    hooks_.record({journal::EventKind::kResidueAbandoned, 0, fault_round,
                   requests_abandoned_this_round, offers_abandoned_this_round, 0});
  }

  // Client-side misbehaviour: a kDenyAgreement fault makes the client of
  // match `m` refuse its proposed agreement (Section III-B's deny path,
  // with the reputational penalty and stat reversal deny_agreement does).
  // The denial journals its kTradeDenied + kDeny penalty, not a
  // kFaultFired, so the decision is taken without journaling.
  for (std::size_t m = 0; m < outcome.agreements.size(); ++m) {
    if (hooks_.decide(fault::FaultKind::kDenyAgreement, {fault_round, hooks_.shard, m, 0}) &&
        deny_agreement(outcome.agreements[m])) {
      hooks_.count("fault.agreements_denied");
    }
  }
  return outcome;
}

bool MarketOrchestrator::deny_agreement(ContractId id) {
  const auto it = last_round_matches_.find(id);
  if (it == last_round_matches_.end()) return false;  // not from the latest round
  const MatchRecord& record = it->second;
  if (!protocol_.contract().deny(id, record.client)) return false;

  // The denied agreement came from the latest appended block.
  const std::uint64_t block = protocol_.chain().height() - 1;
  hooks_.record({journal::EventKind::kTradeDenied, 0, block, id.value(), record.request_id, 0});
  hooks_.record({journal::EventKind::kReputationPenalty, 0, block, record.client.value(),
                 static_cast<std::uint64_t>(journal::PenaltyKind::kDeny), 0});

  // Revert the request's allocation accounting: the match never executed.
  DECLOUD_EXPECTS(stats_.requests_allocated > 0);
  DECLOUD_EXPECTS(record.request_attempt < stats_.allocation_latency.size() &&
                  stats_.allocation_latency[record.request_attempt] > 0);
  --stats_.requests_allocated;
  --stats_.allocation_latency[record.request_attempt];
  ++stats_.agreements_denied;

  // Refund the offer's retry attempt: run_round charged it one on
  // resubmission, but the denial was the client's doing.  If the offer
  // already aged out of the queue, re-enter it at its pre-match budget.
  const auto offer_id = record.offer.id.value();
  bool still_pending = false;
  for (auto& po : pending_offers_) {
    if (po.offer.id.value() == offer_id) {
      if (po.attempts > record.offer_attempts) po.attempts = record.offer_attempts;
      still_pending = true;
      break;
    }
  }
  if (!still_pending) {
    pending_offers_.push_back({record.offer, record.offer_attempts});
    ++stats_.bids_carried;  // the refund re-enters it into the residue
    hooks_.record({journal::EventKind::kResidueCarried, 0, block, 1,
                   static_cast<std::uint64_t>(journal::CarryCause::kDenialRefund), 0});
  }

  last_round_matches_.erase(it);
  return true;
}

void MarketOrchestrator::drain(std::size_t max_rounds, Time start_time, Seconds round_interval) {
  Time now = start_time;
  for (std::size_t round = 0; round < max_rounds && queued_bids() > 0; ++round) {
    (void)run_round(now);
    now += round_interval;
  }
}

}  // namespace decloud::ledger
