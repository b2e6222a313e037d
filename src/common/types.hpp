// Fundamental domain types shared across all DeCloud modules.
#pragma once

#include <cstdint>

#include "common/strong_id.hpp"

namespace decloud {

// ---------------------------------------------------------------------------
// Identifier spaces (Table I of the paper).
// ---------------------------------------------------------------------------

struct ClientTag {};
struct ProviderTag {};
struct RequestTag {};
struct OfferTag {};
struct ContractTag {};

/// Identifies a client i ∈ N.
using ClientId = StrongId<ClientTag>;
/// Identifies a provider j ∈ M.
using ProviderId = StrongId<ProviderTag>;
/// Identifies a single request r (one container a client needs to run).
using RequestId = StrongId<RequestTag>;
/// Identifies a single offer o (one computational device).
using OfferId = StrongId<OfferTag>;
/// Identifies a smart-contract agreement instance.
using ContractId = StrongId<ContractTag>;

// ---------------------------------------------------------------------------
// Time and money.
// ---------------------------------------------------------------------------

/// Simulation time in seconds since epoch.  Plain integer seconds keep the
/// temporal constraints (10)–(11) exact.
using Time = std::int64_t;

/// A span of simulated seconds (e.g. request duration d_r).
using Seconds = std::int64_t;

/// Monetary amounts (valuations v_r, costs c_o, payments, welfare).  The
/// paper allows non-negative rationals; we use double and keep all equality
/// invariants (e.g. strong budget balance) true *by construction* — revenues
/// are defined as sums of payments, never recomputed independently.
using Money = double;

}  // namespace decloud
