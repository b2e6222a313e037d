// The one observation/chaos handle a market layer carries.
//
// A shard's metrics sink, its flight-recorder ring and its slice of the
// fault plan travel together: the engine builds one Hooks per shard and
// attaches it to that shard's MarketOrchestrator, which forwards it to its
// LedgerProtocol.  Every member is optional (null = off), and the null
// tests live here — instrumented code calls count/record/fire
// unconditionally, and each call collapses to one pointer test when its
// hook is off (the null-sink contract, DESIGN.md §3e).
//
// Hooks never derive one emission from another: a fault firing journals
// a kFaultFired event, and the site bumps whatever fault.* counter it has
// with an explicit count() (several kinds have none; DESIGN.md §3f).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fault/injector.hpp"
#include "journal/journal.hpp"
#include "obs/sink.hpp"

namespace decloud::ledger {

struct Hooks {
  /// Metrics and spans (not owned).
  obs::MetricsSink* sink = nullptr;
  /// Flight recorder (not owned) and the ring this layer writes.
  journal::Journal* journal = nullptr;
  std::size_t ring = 0;
  /// Fault schedule (not owned) and the FaultSite::shard of this layer.
  const fault::FaultInjector* faults = nullptr;
  std::uint64_t shard = 0;

  /// Adds `n` to the named counter (creating it even when n == 0).
  void count(std::string_view name, std::uint64_t n = 1) const {
    if (sink != nullptr) sink->metrics().counter(name).add(n);
  }

  /// Appends `event` to this hook's journal ring.
  void record(const journal::Event& event) const {
    if (journal != nullptr) journal->append(ring, event);
  }

  /// Whether the plan makes `kind` misbehave at `site`, without journaling
  /// it — for sites whose firing is recorded by its consequences instead.
  [[nodiscard]] bool decide(fault::FaultKind kind, const fault::FaultSite& site) const {
    return faults != nullptr && faults->fires(kind, site);
  }

  /// decide(), journaling a firing as kFaultFired {epoch, a = kind,
  /// b = site.index, c = site.attempt}.
  [[nodiscard]] bool fire(fault::FaultKind kind, const fault::FaultSite& site,
                          std::uint64_t epoch) const {
    if (!decide(kind, site)) return false;
    record({journal::EventKind::kFaultFired, 0, epoch, static_cast<std::uint64_t>(kind),
            site.index, site.attempt});
    return true;
  }
};

}  // namespace decloud::ledger
