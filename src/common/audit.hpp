// Compiled-in mechanism-invariant audits — the DECLOUD_AUDIT build option.
//
// verify.cpp checks a RoundResult *post hoc*, from the public result and
// its snapshot; the audit layer runs those checks on every round
// (auction::audit::check_round) and also fires *inside* the mechanism
// while the internal state (cluster economics, price quotes, per-auction
// match ranges) is still in scope, so it can check properties the public
// result alone cannot express — e.g. that the clearing price really is
// min(v̂_z, ĉ_{z'+1}) over the live clusters of the mini-auction.
//
// The audit functions are ALWAYS compiled (tests call them directly, and
// dead-code rot is itself a bug class); only the call sites in the hot
// paths are gated, via `if constexpr (audit::kEnabled)`, so a production
// build pays nothing.  Configure with -DDECLOUD_AUDIT=ON to enable.
#pragma once

#include <string>

#include "common/ensure.hpp"

namespace decloud::audit {

#if defined(DECLOUD_AUDIT)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Thrown when a compiled-in mechanism audit fails.  Derives from
/// invariant_error: an audit failure IS a library bug, but tests can still
/// distinguish "audit tripped" from an ordinary DECLOUD_ENSURES.
class audit_error : public invariant_error {
 public:
  using invariant_error::invariant_error;
};

/// Throws audit_error with a uniform prefix when `cond` is false.
inline void check(bool cond, const std::string& what) {
  if (!cond) throw audit_error("mechanism audit failed: " + what);
}

}  // namespace decloud::audit
