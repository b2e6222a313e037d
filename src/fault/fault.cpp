#include "fault/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "common/ensure.hpp"

namespace decloud::fault {

namespace {

/// The spelling of kFaultKinds[i].
constexpr std::string_view kKindNames[std::size(kFaultKinds)] = {
    "withhold_reveal",    "corrupt_sealed_bid", "duplicate_sealed_bid",
    "corrupt_allocation", "dishonest_vote",     "deny_agreement",
    "reject_ingest",      "crash_at_site",
};

[[nodiscard]] bool in_window(std::uint64_t v, std::uint64_t lo, std::uint64_t hi) {
  return lo <= v && v <= hi;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// Refuses a plan unless `ok`, naming the token at fault: the message is
/// what a command line prints, so it carries no source location.
void check(bool ok, std::string_view what, std::string_view token) {
  if (!ok) {
    throw precondition_error("fault plan: " + std::string(what) + " '" + std::string(token) +
                             "'");
  }
}

[[nodiscard]] std::uint64_t parse_u64(std::string_view tok) {
  check(!tok.empty(), "empty number", tok);
  std::uint64_t value = 0;
  for (const char c : tok) {
    check(c >= '0' && c <= '9', "malformed unsigned integer", tok);
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Parses "N" or "LO-HI" into an inclusive window.
void parse_range(std::string_view tok, std::uint64_t& lo, std::uint64_t& hi) {
  const std::size_t dash = tok.find('-');
  if (dash == std::string_view::npos) {
    lo = hi = parse_u64(tok);
    return;
  }
  lo = parse_u64(tok.substr(0, dash));
  hi = parse_u64(tok.substr(dash + 1));
  check(lo <= hi, "inverted range", tok);
}

void append_range(std::string& out, const char* key, std::uint64_t lo, std::uint64_t hi) {
  char buf[64];
  if (lo == hi) {
    std::snprintf(buf, sizeof buf, ":%s=%llu", key, static_cast<unsigned long long>(lo));
  } else {
    std::snprintf(buf, sizeof buf, ":%s=%llu-%llu", key, static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
  }
  out += buf;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  std::size_t i = 0;
  while (i < std::size(kFaultKinds) && kFaultKinds[i] != kind) ++i;
  DECLOUD_EXPECTS(i < std::size(kFaultKinds));
  return kKindNames[i];
}

std::optional<FaultKind> parse_kind(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kFaultKinds); ++i) {
    if (kKindNames[i] == name) return kFaultKinds[i];
  }
  return std::nullopt;
}

bool FaultRule::matches(FaultKind k, const FaultSite& site) const {
  return k == kind && in_window(site.round, round_lo, round_hi) &&
         in_window(site.shard, shard_lo, shard_hi) &&
         in_window(site.index, index_lo, index_hi) &&
         in_window(site.attempt, attempt_lo, attempt_hi);
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::string_view entry =
        trim(spec.substr(pos, semi == std::string_view::npos ? semi : semi - pos));
    pos = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    if (entry.empty()) continue;  // tolerate trailing / doubled separators

    FaultRule rule;
    std::size_t field_pos = 0;
    bool have_kind = false;
    while (field_pos <= entry.size()) {
      const std::size_t colon = entry.find(':', field_pos);
      const std::string_view field = trim(
          entry.substr(field_pos, colon == std::string_view::npos ? colon : colon - field_pos));
      field_pos = colon == std::string_view::npos ? entry.size() + 1 : colon + 1;
      if (!have_kind) {
        const auto kind = parse_kind(field);
        check(kind.has_value(), "unknown fault kind", field);
        rule.kind = *kind;
        have_kind = true;
        continue;
      }
      const std::size_t eq = field.find('=');
      check(eq != std::string_view::npos, "field needs key=value", field);
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      if (key == "p") {
        const std::string copy(value);
        char* end = nullptr;
        rule.probability = std::strtod(copy.c_str(), &end);
        check(end == copy.c_str() + copy.size() && !copy.empty(), "malformed probability", value);
        check(rule.probability >= 0.0 && rule.probability <= 1.0, "probability outside [0,1]",
              value);
      } else if (key == "rounds") {
        parse_range(value, rule.round_lo, rule.round_hi);
      } else if (key == "shards") {
        parse_range(value, rule.shard_lo, rule.shard_hi);
      } else if (key == "index") {
        parse_range(value, rule.index_lo, rule.index_hi);
      } else if (key == "attempts") {
        parse_range(value, rule.attempt_lo, rule.attempt_hi);
      } else {
        check(false, "unknown field key", key);
      }
    }
    check(have_kind, "rule without a fault kind", entry);
    plan.rules.push_back(rule);
  }
  return plan;
}

std::string FaultPlan::canonical() const {
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& r = rules[i];
    if (i > 0) out += ';';
    out += to_string(r.kind);
    std::snprintf(buf, sizeof buf, ":p=%.17g", r.probability);
    out += buf;
    append_range(out, "rounds", r.round_lo, r.round_hi);
    append_range(out, "shards", r.shard_lo, r.shard_hi);
    append_range(out, "index", r.index_lo, r.index_hi);
    append_range(out, "attempts", r.attempt_lo, r.attempt_hi);
  }
  return out;
}

}  // namespace decloud::fault
