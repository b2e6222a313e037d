// Stateless fault decisions over a FaultPlan.
//
// `fires(kind, site)` answers "does the schedule make this party misbehave
// here?" as a PURE function of (plan, seed, kind, site): each candidate is
// decided by hashing the site coordinates through SplitMix64 and comparing
// the resulting uniform coin against the rule's probability.  No internal
// state means
//
//   * decisions are independent of query order, thread count, and how many
//     other sites were probed — the byte-determinism contract extends to
//     chaos runs;
//   * one const injector can be shared across every shard and layer with
//     no synchronization.
//
// A default-constructed injector carries an empty plan and never fires
// ("null injector").  Market hook points reach it through ledger::Hooks,
// which pays one pointer test when no injector is attached, mirroring the
// null-sink discipline of src/obs.
#pragma once

#include <cstdint>
#include <utility>

#include "fault/fault.hpp"

namespace decloud::fault {

class FaultInjector {
 public:
  /// Null injector: empty plan, fires nothing.
  FaultInjector() = default;

  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(seed) {}

  /// False for the null injector; hook points can early-out on this.
  [[nodiscard]] bool active() const { return !plan_.rules.empty(); }

  /// True iff some rule of the plan matches the site and its seeded coin
  /// lands.  Rules are tried in plan order; the first hit wins.
  [[nodiscard]] bool fires(FaultKind kind, const FaultSite& site) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  FaultPlan plan_;
  std::uint64_t seed_ = 0;
};

}  // namespace decloud::fault
