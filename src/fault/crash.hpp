// Deterministic process-kill sites for the durable-market chaos suite.
//
// A `crash_at_site` rule (fault.hpp grammar) schedules hard process exits
// at named points in the engine's durable path, so kill-and-recover tests
// can die at EXACTLY the same site on every run.  The coordinate mapping
// (DESIGN.md §3k):
//
//   attempt = crash site id (CrashSite below)
//   index   = the site's own monotone sequence — input_seq for ingest
//             sites, epoch number for epoch sites, block height for
//             append sites
//   shard   = shard index (0 for engine-global sites)
//   round   = 0 (unused)
//
// e.g. `crash_at_site:attempts=0:index=3` kills the process right after
// the 4th input's WAL record reaches disk, before the bid is applied.
// Crashes are driven by a SEPARATE injector
// (`MarketEngine::set_crash_injector`) from the behavioural
// `--fault-plan` one, so (a) the uninterrupted reference run
// of a recovery check simply omits the crash plan without perturbing any
// other fault coin, and (b) a recovered process resuming past the crash
// site does not immediately die again.
//
// The exit is std::_Exit — no atexit handlers, no flushing, no stack
// unwinding — which is precisely the torn state a real power cut leaves.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "fault/injector.hpp"

namespace decloud::fault {

/// Exit status a scheduled crash dies with; recover_check asserts it to
/// distinguish an injected kill from a genuine failure.
inline constexpr int kCrashExitCode = 86;

/// Site ids (the `attempts` coordinate of a crash_at_site rule).
enum class CrashSite : std::uint64_t {
  kAfterBidAppend = 0,    ///< bid WAL record durable, bid not yet applied
  // 1 is reserved: the retired after-tick-append site (ticks are not logged).
  kMidEpoch = 2,          ///< inside run_shard_epoch, before the round
  kAfterBlockAppend = 3,  ///< block WAL record durable, after chain append
  // 4 is reserved: the retired mid-snapshot site (recovery replays the
  // whole WAL and writes no snapshots).
};

/// Kills the process iff `injector` schedules a crash at the site.  Null
/// or inactive injectors cost one pointer test.
inline void crash_if(const FaultInjector* injector, CrashSite site_id, std::uint64_t index,
                     std::uint64_t shard = 0) {
  if (injector == nullptr || !injector->active()) return;
  const FaultSite site{.round = 0,
                       .shard = shard,
                       .index = index,
                       .attempt = static_cast<std::uint64_t>(site_id)};
  if (injector->fires(FaultKind::kCrashAtSite, site)) std::_Exit(kCrashExitCode);
}

}  // namespace decloud::fault
