// Deterministic fault schedules — the adversarial story of Section III.
//
// The two-phase bid exposure protocol exists because parties can
// misbehave: withhold temporary keys, publish bogus allocation
// suggestions, vote dishonestly, deny agreed matches.  A FaultPlan is a
// declarative schedule of such misbehaviour: a list of rules, each naming
// a fault kind, a firing probability, and inclusive windows over the
// coordinates where the fault may fire (round, shard, index, attempt).
//
// Determinism contract: a plan never carries hidden state.  Whether a
// fault fires at a given site is a pure function of (plan, seed, site) —
// see injector.hpp — so replaying the same plan and seed yields
// byte-identical outcomes regardless of thread count or query order.
//
// Plans have a textual form for CLI/CI use (`engine_driver --fault-plan`):
//
//   spec     := rule (';' rule)*
//   rule     := kind (':' field)*
//   field    := 'p=' FLOAT | 'rounds=' range | 'shards=' range
//             | 'index=' range | 'attempts=' range
//   range    := UINT | UINT '-' UINT          (inclusive)
//
// e.g. "withhold_reveal:p=0.5:rounds=0-9;dishonest_vote:index=1".
// Omitted fields default to "always / everywhere" (p=1, full windows).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace decloud::fault {

/// Every injectable misbehaviour, one per protocol/engine hook point.  The
/// values are frozen: the injector's coin hashes them and the journal
/// records them, so 6 and 7 (two retired overlay-message kinds) stay unused.
enum class FaultKind : std::uint8_t {
  kWithholdReveal = 0,   ///< participant never broadcasts its temporary keys
  kCorruptSealedBid,     ///< sealed bid arrives with a flipped ciphertext byte
  kDuplicateSealedBid,   ///< the same sealed bid is submitted twice
  kCorruptAllocation,    ///< producer publishes a corrupted allocation body
  kDishonestVote,        ///< verifier inverts its honest vote
  kDenyAgreement,        ///< client denies a proposed agreement
  kRejectIngest = 8,     ///< engine shard queue refuses an ingest
  kCrashAtSite,          ///< process exits hard at a durable-market crash site
};

/// Every kind, in value order.
inline constexpr FaultKind kFaultKinds[] = {
    FaultKind::kWithholdReveal,    FaultKind::kCorruptSealedBid, FaultKind::kDuplicateSealedBid,
    FaultKind::kCorruptAllocation, FaultKind::kDishonestVote,    FaultKind::kDenyAgreement,
    FaultKind::kRejectIngest,      FaultKind::kCrashAtSite,
};

/// Canonical spelling used by the plan grammar ("withhold_reveal", …).
[[nodiscard]] std::string_view to_string(FaultKind kind);
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<FaultKind> parse_kind(std::string_view name);

/// The coordinates of one potential fault.  Layers fill what they know and
/// leave the rest 0: the protocol uses (round=chain height, shard, index=
/// participant/verifier/bid index, attempt=re-mine attempt); the engine
/// uses (round=epoch, shard, index=ingest sequence, attempt=retry).
struct FaultSite {
  std::uint64_t round = 0;
  std::uint64_t shard = 0;
  std::uint64_t index = 0;
  std::uint64_t attempt = 0;
};

/// One scheduled misbehaviour.  All windows are inclusive; the defaults
/// match every site.
struct FaultRule {
  FaultKind kind = FaultKind::kWithholdReveal;
  double probability = 1.0;
  std::uint64_t round_lo = 0;
  std::uint64_t round_hi = UINT64_MAX;
  std::uint64_t shard_lo = 0;
  std::uint64_t shard_hi = UINT64_MAX;
  std::uint64_t index_lo = 0;
  std::uint64_t index_hi = UINT64_MAX;
  std::uint64_t attempt_lo = 0;
  std::uint64_t attempt_hi = UINT64_MAX;

  [[nodiscard]] bool matches(FaultKind k, const FaultSite& site) const;
};

/// An ordered list of fault rules.  The first matching rule whose coin
/// lands wins (rule order is part of the schedule's identity).
struct FaultPlan {
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }

  /// Parses the textual grammar above.  Throws precondition_error on
  /// unknown kinds or field keys, probabilities outside [0,1], or
  /// inverted ranges; its message names the offending token
  /// ("fault plan: unknown fault kind 'drop_message'").
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Round-trippable textual form: every field explicit, fixed order,
  /// %.17g probabilities.  parse(canonical()) reproduces the plan.
  [[nodiscard]] std::string canonical() const;
};

}  // namespace decloud::fault
