#include "fault/injector.hpp"

#include "common/ensure.hpp"
#include "common/rng.hpp"

namespace decloud::fault {

namespace {

/// Uniform coin in [0, 1) from the full site coordinates.  Folding every
/// coordinate (plus the rule index) through SplitMix64 keeps decisions for
/// distinct sites — and distinct rules at the same site — independent.
[[nodiscard]] double site_coin(std::uint64_t seed, std::size_t rule_index, FaultKind kind,
                               const FaultSite& site) {
  SplitMix64 mix(seed);
  mix.next();  // decorrelate trivially related seeds (0 vs 1, …)
  SplitMix64 folded(mix.next() ^ (static_cast<std::uint64_t>(rule_index) << 32) ^
                    static_cast<std::uint64_t>(kind));
  SplitMix64 a(folded.next() ^ site.round);
  SplitMix64 b(a.next() ^ site.shard);
  SplitMix64 c(b.next() ^ site.index);
  SplitMix64 d(c.next() ^ site.attempt);
  return static_cast<double>(d.next() >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultInjector::fires(FaultKind kind, const FaultSite& site) const {
  DECLOUD_EXPECTS(kind <= FaultKind::kCrashAtSite);
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.matches(kind, site) && site_coin(seed_, i, kind, site) < rule.probability) {
      return true;
    }
  }
  return false;
}

}  // namespace decloud::fault
