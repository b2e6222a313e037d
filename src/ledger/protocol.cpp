#include "ledger/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/audit.hpp"
#include "common/ensure.hpp"
#include "ledger/codec.hpp"

namespace decloud::ledger {

namespace {

void append_json_sizet(std::string& out, const char* key, std::size_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%zu,", key, value);
  out += buf;
}

}  // namespace

ClientId ledger_address(const crypto::PublicKey& sender) {
  // "The fingerprint is the ledger address" (sealed_bid.hpp).
  return ClientId(crypto::fold_digest(sender.fingerprint()));
}

std::string outcome_json(const RoundOutcome& o) {
  std::string out;
  out.reserve(256 + o.result.matches.size() * 64);
  char buf[128];
  out += "{\"accepted\":";
  out += o.block_accepted ? "true" : "false";
  out += ",\"votes\":[";
  for (std::size_t i = 0; i < o.verifier_votes.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += o.verifier_votes[i] ? "1" : "0";
  }
  out += "],";
  append_json_sizet(out, "requests", o.snapshot.requests.size());
  append_json_sizet(out, "offers", o.snapshot.offers.size());
  out += "\"matches\":[";
  for (std::size_t i = 0; i < o.result.matches.size(); ++i) {
    const auction::Match& m = o.result.matches[i];
    std::snprintf(buf, sizeof buf, "%s{\"request\":%zu,\"offer\":%zu,\"payment\":%.17g}",
                  i == 0 ? "" : ",", m.request, m.offer, m.payment);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "],\"welfare\":%.17g,\"payments\":%.17g,\"agreements\":%zu,",
                o.result.welfare, o.result.total_payments, o.agreements.size());
  out += buf;
  out += "\"fault\":{";
  append_json_sizet(out, "bids_invalid_dropped", o.fault.bids_invalid_dropped);
  append_json_sizet(out, "reveals_withheld", o.fault.reveals_withheld);
  append_json_sizet(out, "bids_unopened", o.fault.bids_unopened);
  append_json_sizet(out, "dishonest_votes", o.fault.dishonest_votes);
  append_json_sizet(out, "remine_attempts", o.fault.remine_attempts);
  out += "\"allocation_corrupted\":";
  out += o.fault.allocation_corrupted ? "true" : "false";
  out += ",\"producer_penalized\":";
  out += o.fault.producer_penalized ? "true" : "false";
  out += ",\"penalized\":[";
  for (std::size_t i = 0; i < o.fault.penalized.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%llu", i == 0 ? "" : ",",
                  static_cast<unsigned long long>(o.fault.penalized[i].value()));
    out += buf;
  }
  out += "]}}";
  return out;
}

Mempool::Admission Mempool::submit(SealedBid bid) {
  if (!digests_.insert(bid.digest()).second) return Admission::kDuplicate;
  pool_.push_back(std::move(bid));
  return Admission::kAccepted;
}

std::vector<SealedBid> Mempool::drain() {
  digests_.clear();
  return std::exchange(pool_, {});
}

std::size_t LedgerProtocol::required_accepts(double quorum, std::size_t verifiers) {
  DECLOUD_EXPECTS_MSG(quorum > 0.0 && quorum <= 1.0, "quorum must be in (0, 1]");
  if (verifiers == 0) return 0;  // producer-only deployments self-accept
  // The epsilon keeps exact fractions exact: quorum 2/3 of 3 verifiers
  // needs 2 votes, not ceil(2.0000000000000004) = 3.
  const double target = quorum * static_cast<double>(verifiers);
  const auto required = static_cast<std::size_t>(std::ceil(target - 1e-9));
  return required > verifiers ? verifiers : required;
}

RoundOutcome LedgerProtocol::run_round(std::span<Participant* const> participants,
                                       std::size_t verifiers, Time now) {
  for (const Participant* p : participants) {
    DECLOUD_EXPECTS_MSG(p != nullptr, "run_round: null participant");
  }
  const std::size_t required = required_accepts(params_.quorum, verifiers);
  // Every miner opens the block against the same registry state: the
  // contract changes only after the votes (penalties, registration).
  const ReputationRegistry& reputation = contract_.reputation();

  RoundOutcome outcome;
  const std::uint64_t round = chain_.height();

  auto bids = mempool_.drain();
  hooks_.count("ledger.bids_sealed", bids.size());

  // Graceful degradation for tampered submissions: a bad signature would
  // invalidate the whole preamble (validate_preamble checks every bid), so
  // drop such bids here — only their sender loses the round.  This is the
  // round's one signature check: key reveal, every verifier and the chain
  // append look the admitted bids up in `verified` (DESIGN.md §3b), which
  // lives across re-mine attempts and dies with the round.
  VerifiedBids verified;
  {
    std::vector<SealedBid> valid;
    valid.reserve(bids.size());
    for (auto& bid : bids) {
      if (verified.admit(bid)) {
        valid.push_back(std::move(bid));
      } else {
        ++outcome.fault.bids_invalid_dropped;
      }
    }
    bids = std::move(valid);
    if (outcome.fault.bids_invalid_dropped > 0) {
      hooks_.count("fault.bids_invalid_dropped", outcome.fault.bids_invalid_dropped);
    }
  }

  // Key reveals accumulate ACROSS re-mine attempts: a wallet retires each
  // key after its first reveal (participant.hpp), so attempt 2 must reuse
  // what attempt 1 disclosed.  `revealed` only dedupes; it is never
  // iterated.
  std::vector<KeyReveal> reveals;
  std::unordered_set<crypto::Digest, crypto::DigestHash> revealed;
  // Ledger addresses already charged a withholding penalty this round
  // (membership only): one debit per sender per round, not per attempt.
  std::unordered_set<std::uint64_t> charged;

  const std::size_t attempts_allowed = params_.max_remine_attempts + 1;
  for (std::size_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    outcome.verifier_votes.clear();

    // Phase 1: assemble + PoW over the sealed bids.  The "pow" span is
    // opened by mine_preamble itself (it knows the attempt count).  The
    // bids are passed by copy: a rejected attempt re-mines from them.
    // `state` keeps this attempt's leaves and Merkle root, so the
    // producer's own checks below hash no bid again (DESIGN.md §3b).
    RoundState state =
        producer_.mine_preamble(bids, chain_.tip_hash(), chain_.height(), now, hooks_.sink);
    const BlockPreamble& preamble = state.preamble();

    // Participants validate the preamble and reveal keys for their bids.
    // A withhold fault silences one participant: its keys stay secret,
    // its bids stay sealed, and only those bids drop out of the round.
    {
      obs::SpanScope span(hooks_.sink, "key_reveal");
      std::size_t fresh = 0;
      if (validate_preamble(state, params_.difficulty_bits, &verified)) {
        for (std::size_t i = 0; i < participants.size(); ++i) {
          if (hooks_.fire(fault::FaultKind::kWithholdReveal, {round, hooks_.shard, i, attempt},
                          round)) {
            ++outcome.fault.reveals_withheld;
            continue;
          }
          for (auto& kr : participants[i]->on_preamble(preamble)) {
            if (revealed.insert(kr.bid_digest).second) {
              reveals.push_back(std::move(kr));
              ++fresh;
            }
          }
        }
      }
      span.add_work(fresh);
      hooks_.count("ledger.keys_revealed", fresh);
    }

    // Phase 2: allocation computation and block body.  The producer keeps
    // the block it opened: the penalty, decode and append steps read it.
    ProducedBody produced;
    {
      obs::SpanScope span(hooks_.sink, "allocation");
      produced = producer_.compute_body(state, reveals, reputation, hooks_.sink);
    }
    BlockBody& body = produced.body;
    OpenedBlock& opened = produced.opened;
    if (hooks_.fire(fault::FaultKind::kCorruptAllocation, {round, hooks_.shard, 0, attempt},
                    round)) {
      if (body.allocation.empty()) {
        body.allocation.push_back(0xAB);
      } else {
        body.allocation.front() ^= 0xFF;
      }
      outcome.fault.allocation_corrupted = true;
      hooks_.count("fault.allocations_corrupted");
    }

    // Collective verification: every verifier re-runs the auction under
    // the protocol's params; the block stands iff the accepting votes
    // reach the quorum.
    std::size_t accepts = 0;
    {
      obs::SpanScope span(hooks_.sink, "verify");
      span.add_work(verifiers);
      const Miner verifier(params_);
      for (std::size_t v = 0; v < verifiers; ++v) {
        bool ok = verifier.verify_body(preamble, body, reputation, &verified);
        if (hooks_.fire(fault::FaultKind::kDishonestVote, {round, hooks_.shard, v, attempt},
                        round)) {
          ok = !ok;
          ++outcome.fault.dishonest_votes;
          hooks_.count("fault.dishonest_votes");
        }
        outcome.verifier_votes.push_back(ok);
        if (ok) ++accepts;
      }
    }
    const bool quorum_reached = accepts >= required;

    // Withholding penalty: every distinct sender of a bid that never
    // opened is debited BEFORE any allocation registers — exclusion from
    // this round is not enough, or withholding would be free (Section
    // III-B's reputational stick, extended to key withholding).
    for (const std::size_t u : opened.unopened) {
      const ClientId address = ledger_address(preamble.sealed_bids[u].sender);
      if (charged.insert(address.value()).second) {
        contract_.penalize_withhold(address);
        outcome.fault.penalized.push_back(address);
        hooks_.count("fault.withhold_penalties");
        hooks_.record({journal::EventKind::kReputationPenalty, 0, round, address.value(),
                       static_cast<std::uint64_t>(journal::PenaltyKind::kWithhold), attempt});
      }
    }
    outcome.fault.bids_unopened = opened.unopened.size();

    outcome.snapshot = std::move(opened.snapshot);
    outcome.result = auction::RoundResult{};
    bool decodable = true;
    try {
      outcome.result = decode_allocation({body.allocation.data(), body.allocation.size()},
                                         outcome.snapshot.requests.size(),
                                         outcome.snapshot.offers.size());
    } catch (const precondition_error&) {
      // A corrupted body may not even decode; never register garbage,
      // even if a dishonest quorum voted it through.
      decodable = false;
      outcome.result = auction::RoundResult{};
    }

    if (quorum_reached && decodable) {
      {
        obs::SpanScope span(hooks_.sink, "append");
        outcome.block_accepted = chain_.append(state, params_.difficulty_bits, &verified);
        outcome.block =
            Block{.preamble = std::move(state).take_preamble(), .body = std::move(body)};
        if (outcome.block_accepted) {
          outcome.agreements =
              contract_.register_allocation(chain_.height() - 1, outcome.snapshot, outcome.result);
        }
        span.add_work(outcome.agreements.size());
      }
      if constexpr (decloud::audit::kEnabled) {
        // Satellite invariant: a penalized (withholding) participant can
        // never appear in the accepted block's matches — its bids never
        // opened, so no match row can trace back to its address.
        for (const auction::Match& m : outcome.result.matches) {
          const std::size_t req_src = opened.request_source[m.request];
          const std::size_t off_src = opened.offer_source[m.offer];
          decloud::audit::check(
              !charged.contains(
                  ledger_address(outcome.block.preamble.sealed_bids[req_src].sender).value()),
              "penalized participant absent from accepted matches (request side)");
          decloud::audit::check(
              !charged.contains(
                  ledger_address(outcome.block.preamble.sealed_bids[off_src].sender).value()),
              "penalized participant absent from accepted matches (offer side)");
        }
      }
      hooks_.count(outcome.block_accepted ? "ledger.blocks_accepted" : "ledger.blocks_rejected");
      hooks_.count("ledger.agreements", outcome.agreements.size());
      if (outcome.block_accepted) {
        hooks_.record({journal::EventKind::kBlockMined, 0, round, chain_.height() - 1,
                       outcome.result.matches.size(), outcome.agreements.size(),
                       outcome.result.welfare});
      } else {
        hooks_.record(
            {journal::EventKind::kBlockRejected, 0, round, attempt, accepts, required});
      }
      return outcome;
    }

    // Rejected: the producer burned PoW on a block the quorum refused —
    // that is the penalty event, charged once per failed attempt.
    ++producer_penalties_;
    outcome.fault.producer_penalized = true;
    hooks_.count("ledger.blocks_rejected");
    hooks_.record({journal::EventKind::kBlockRejected, 0, round, attempt, accepts, required});
    hooks_.record({journal::EventKind::kReputationPenalty, 0, round, 0,
                   static_cast<std::uint64_t>(journal::PenaltyKind::kProducer), attempt});

    if (attempt + 1 < attempts_allowed) {
      ++outcome.fault.remine_attempts;
      hooks_.count("fault.blocks_remined");
      hooks_.record({journal::EventKind::kBlockRemined, 0, round, attempt + 1,
                     opened.unopened.size(), 0});
      // Bounded recovery: re-mine with the faulty inputs excluded.  The
      // unopened bids are the inputs the producer could not honor; their
      // keys may never come, so they sit the retry out (and resubmit via
      // the market layer in a later round).
      if (!opened.unopened.empty()) {
        std::vector<SealedBid> kept;
        kept.reserve(bids.size() - opened.unopened.size());
        std::size_t next_unopened = 0;
        for (std::size_t i = 0; i < bids.size(); ++i) {
          if (next_unopened < opened.unopened.size() && opened.unopened[next_unopened] == i) {
            ++next_unopened;
            continue;
          }
          kept.push_back(std::move(bids[i]));
        }
        bids = std::move(kept);
      }
    }
  }
  return outcome;
}

}  // namespace decloud::ledger
