#include "auction/bid.hpp"

#include <cmath>

#include "common/ensure.hpp"

namespace decloud::auction {

namespace {

/// The QoM gravity term reads the coordinates, so an inf or NaN one would
/// poison every score it meets.
void validate_location(const std::optional<Location>& location) {
  if (!location.has_value()) return;
  DECLOUD_EXPECTS_MSG(std::isfinite(location->x) && std::isfinite(location->y),
                      "location coordinates must be finite");
}

}  // namespace

double Request::significance_of(ResourceId type) const {
  return significance.has(type) ? significance.get(type) : 1.0;
}

void validate(const Request& r) {
  DECLOUD_EXPECTS_MSG(std::isfinite(r.bid) && r.bid >= 0.0,
                      "request bid must be finite and non-negative (constraint 12)");
  DECLOUD_EXPECTS_MSG(!r.resources.empty(), "request must declare at least one resource");
  DECLOUD_EXPECTS_MSG(r.window_end >= r.window_start, "request window must be non-empty");
  DECLOUD_EXPECTS_MSG(r.duration > 0, "request duration must be positive");
  DECLOUD_EXPECTS_MSG(r.duration <= r.window_end - r.window_start,
                      "duration cannot exceed the service window");
  DECLOUD_EXPECTS_MSG(std::isfinite(r.reputation) && r.reputation >= 0.0,
                      "reputation must be finite and non-negative");
  validate_location(r.location);
  for (const auto& e : r.significance.entries()) {
    DECLOUD_EXPECTS_MSG(e.amount > 0.0 && e.amount <= 1.0, "significance must lie in (0, 1]");
    DECLOUD_EXPECTS_MSG(r.resources.has(e.type),
                        "significance declared for a resource the request does not use");
  }
}

void validate(const Offer& o) {
  DECLOUD_EXPECTS_MSG(std::isfinite(o.bid) && o.bid >= 0.0,
                      "offer bid must be finite and non-negative (constraint 13)");
  DECLOUD_EXPECTS_MSG(!o.resources.empty(), "offer must declare at least one resource");
  DECLOUD_EXPECTS_MSG(o.window_end > o.window_start, "offer window must have positive length");
  DECLOUD_EXPECTS_MSG(std::isfinite(o.min_reputation) && o.min_reputation >= 0.0,
                      "reputation threshold must be finite and non-negative");
  validate_location(o.location);
}

}  // namespace decloud::auction
