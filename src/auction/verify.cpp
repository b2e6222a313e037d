#include "auction/verify.hpp"

#include <cmath>
#include <sstream>
#include <map>

#include "auction/feasibility.hpp"
#include "common/ensure.hpp"

namespace decloud::auction {


namespace {

constexpr double kMoneyTolerance = 1e-6;

/// Minimal substitute for std::format (unavailable in GCC 12): streams all
/// arguments into a string.
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace

VerificationReport verify_invariants(const MarketSnapshot& snapshot, const RoundResult& result,
                                     const AuctionConfig& config, bool check_payments) {
  DECLOUD_EXPECTS_MSG(config.flexibility > 0.0 && config.flexibility <= 1.0,
                      "flexibility must lie in (0, 1]");
  VerificationReport report;
  auto fail = [&](std::string msg) { report.violations.push_back(std::move(msg)); };

  // The settlement vectors must align with the snapshot before anything
  // below indexes them.
  if (result.payment_by_request.size() != snapshot.requests.size() ||
      result.revenue_by_offer.size() != snapshot.offers.size()) {
    fail(cat("settlement vectors hold ", result.payment_by_request.size(), " payments and ",
             result.revenue_by_offer.size(), " revenues for ", snapshot.requests.size(),
             " requests and ", snapshot.offers.size(), " offers"));
    return report;
  }

  // Constraint (5): each request matched at most once.
  std::vector<std::size_t> match_count(snapshot.requests.size(), 0);
  for (const Match& m : result.matches) {
    if (m.request >= snapshot.requests.size() || m.offer >= snapshot.offers.size()) {
      fail("match references out-of-range participant");
      return report;
    }
    ++match_count[m.request];
  }
  for (std::size_t r = 0; r < match_count.size(); ++r) {
    if (match_count[r] > 1) {
      fail(cat("request ", r, " matched ", match_count[r], " times (constraint 5)"));
    }
  }

  // Constraints (7)/(8): per-offer aggregate capacity, honouring the
  // flexibility relaxation; (10)/(11): temporal coverage.
  std::map<std::size_t, ResourceVector> load;
  for (const Match& m : result.matches) {
    const Request& r = snapshot.requests[m.request];
    const Offer& o = snapshot.offers[m.offer];
    if (!window_covers(o, r)) {
      fail(cat("match (r=", m.request, ", o=", m.offer, ") violates temporal constraints (10)/(11)"));
    }
    if (!resources_sufficient(o, r, config.flexibility)) {
      fail(cat("match (r=", m.request, ", o=", m.offer, ") violates resource constraint (8)"));
    }
    auto& acc = load[m.offer];
    for (const auto& e : m.granted.entries()) {
      acc.set(e.type, acc.get(e.type) + e.amount);
      if (e.amount > r.resources.get(e.type) + kMoneyTolerance) {
        fail(cat("match (r=", m.request, ", o=", m.offer, ") granted more of resource ", e.type,
                 " than requested"));
      }
    }
    // Every requested resource must be granted to at least the flexible
    // floor (strict resources in full).
    for (const auto& need : r.resources.entries()) {
      const double floor_amount =
          r.is_strict(need.type) ? need.amount : config.flexibility * need.amount;
      if (m.granted.get(need.type) < floor_amount - kMoneyTolerance) {
        fail(cat("match (r=", m.request, ", o=", m.offer, ") under-grants resource ", need.type));
      }
    }
    if (m.fraction < 0.0 || m.fraction > 1.0 + 1e-9) {
      fail(cat("match (r=", m.request, ", o=", m.offer, ") has fraction ", m.fraction, " outside [0,1]"));
    }
  }
  for (const auto& [offer, acc] : load) {
    const Offer& o = snapshot.offers[offer];
    for (const auto& e : acc.entries()) {
      // Aggregate granted demand may not exceed capacity: flexibility
      // lowers what a request is granted, never what an offer holds, so
      // the only slack is kMoneyTolerance (1e-6) of fp rounding.
      const double cap = o.resources.get(e.type);
      if (e.amount > cap + kMoneyTolerance) {
        fail(cat("offer ", offer, " oversubscribed on resource ", e.type, " (", e.amount, " > ", cap, ") (constraint 7)"));
      }
    }
  }

  if (check_payments) {
    // Individual rationality: winners pay at most their bid; losers pay 0.
    for (const Match& m : result.matches) {
      const Request& r = snapshot.requests[m.request];
      if (m.payment > r.bid + kMoneyTolerance) {
        fail(cat("request ", m.request, " pays ", m.payment, " above its bid ", r.bid, " (IR)"));
      }
      if (m.payment < -kMoneyTolerance) {
        fail(cat("request ", m.request, " has negative payment ", m.payment));
      }
    }
    for (std::size_t r = 0; r < snapshot.requests.size(); ++r) {
      if (match_count[r] == 0 && std::abs(result.payment_by_request[r]) > kMoneyTolerance) {
        fail(cat("unallocated request ", r, " has nonzero payment (IR)"));
      }
    }

    // Strong budget balance: Σ payments == Σ revenues.
    double payments = 0.0;
    for (const double p : result.payment_by_request) payments += p;
    double revenues = 0.0;
    for (const double v : result.revenue_by_offer) revenues += v;
    if (std::abs(payments - revenues) > kMoneyTolerance) {
      fail(cat("budget imbalance: payments ", payments, " != revenues ", revenues, " (strong BB)"));
    }
    if (std::abs(payments - result.total_payments) > kMoneyTolerance ||
        std::abs(revenues - result.total_revenue) > kMoneyTolerance) {
      fail("settlement totals disagree with per-participant ledgers");
    }
  }

  return report;
}

}  // namespace decloud::auction
