// The bidding language: requests (Eq. 1) and offers (Eq. 2).
#pragma once

#include <optional>
#include <vector>

#include "auction/resource.hpp"
#include "common/types.hpp"

namespace decloud::auction {

/// Geographic (or network) location ℓ.  Edge services care about proximity;
/// the core mechanism treats derived proximity/latency values as ordinary
/// resource types (see augment_with_proximity in qom.hpp), so the mechanism
/// itself never interprets coordinates.
struct Location {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Location&, const Location&) = default;
};

/// A client's request r = <t_r, [ρ_(r,k)], [σ_(r,k)], t_r^-, t_r^+, d_r, b_r, ℓ_r>
/// — one container the client wants executed (Eq. 1).
struct Request {
  RequestId id;
  ClientId client;
  /// Submission timestamp t_r; used for deterministic tie-breaking
  /// (earlier submissions win ties, Section IV-D).
  Time submitted = 0;
  /// Required resources ρ_(r,k).
  ResourceVector resources;
  /// Significance σ_(r,k) ∈ (0, 1] per resource; σ = 1 marks a strict
  /// requirement.  Types absent from this vector default to σ = 1.
  ResourceVector significance;
  /// Earliest start t_r^- and latest end t_r^+ of the service window.
  Time window_start = 0;
  Time window_end = 0;
  /// Duration d_r the container must run continuously; d_r ≤ t_r^+ − t_r^-.
  Seconds duration = 0;
  /// Reported bid b_r; in the DSIC auction equals the true valuation v_r.
  Money bid = 0.0;
  /// Preferred service location ℓ_r.
  std::optional<Location> location;
  /// The client's reputation score, stamped by the ledger from the
  /// on-chain reputation registry (Section III-B) — NOT self-reported.
  /// Offers may set a minimum (Offer::min_reputation).
  double reputation = 1.0;

  /// Significance for a type (1 when unspecified).
  [[nodiscard]] double significance_of(ResourceId type) const;

  /// True iff the resource is strictly required (σ = 1).
  [[nodiscard]] bool is_strict(ResourceId type) const { return significance_of(type) >= 1.0; }
};

/// A provider's offer o = <t_o, [ρ_(o,k)], t_o^-, t_o^+, b_o, ℓ_o> — one
/// computational device able to run multiple containers (Eq. 2).
struct Offer {
  OfferId id;
  ProviderId provider;
  /// Submission timestamp t_o.
  Time submitted = 0;
  /// Available resources ρ_(o,k).
  ResourceVector resources;
  /// Availability window [t_o^-, t_o^+].
  Time window_start = 0;
  Time window_end = 0;
  /// Reported bid b_o; in the DSIC auction equals the true cost c_o for the
  /// whole availability window.
  Money bid = 0.0;
  /// Device location ℓ_o.
  std::optional<Location> location;
  /// Admission threshold: requests from clients below this reputation are
  /// infeasible for this offer ("they may set a threshold for the
  /// reputation of the clients that they accept", Section III-B).
  double min_reputation = 0.0;

  /// Window length t_o^+ − t_o^-.
  [[nodiscard]] Seconds window_length() const { return window_end - window_start; }
};

/// Validates the structural invariants of a request (finite non-negative
/// bid and reputation, consistent window/duration, σ ∈ (0,1], at least one
/// resource, finite location).  Throws precondition_error describing the
/// first violation.
void validate(const Request& r);

/// Validates the structural invariants of an offer (finite non-negative bid
/// and reputation threshold, positive window, at least one resource, finite
/// location).
void validate(const Offer& o);

/// All requests and offers accepted into one block β: the input of a single
/// allocation round (R^β, O^β).
struct MarketSnapshot {
  std::vector<Request> requests;
  std::vector<Offer> offers;
};

}  // namespace decloud::auction
