// Trace-driven workload generation for the engine.
//
// Bridges trace/workload (the paper's Section V setup: Google-trace
// requests, EC2 offers, best-match valuations) to the sharded engine.
// The generator produces location-less bids — the global single-market
// experiments never needed ℓ — so the driver stamps locations itself:
// each bid independently receives a uniform coordinate in the router's
// bounding box with probability `located_fraction`, and stays
// location-less otherwise (exercising the id-hash spillover).
//
// Bids are streamed in deterministic order (requests and offers
// interleaved by index) by the one trace drive loop,
// stream::drive_trace_stream — the "online appearance" of Section VI: the
// market clears continuously while bids keep arriving.  Submissions
// rejected by backpressure are dropped (and counted); a real producer
// would retry.
#pragma once

#include <cstdint>

#include "engine/engine.hpp"
#include "trace/workload.hpp"

namespace decloud::engine {

/// The workload half of a trace drive; when and how the market clears is
/// the StreamConfig's business (triggers, timestamps, drain budget).
struct TraceDriverConfig {
  trace::WorkloadConfig workload;
  /// Probability a bid gets a location stamped (the rest spill over).
  double located_fraction = 1.0;
  /// RNG seed for workload generation and location stamping.
  std::uint64_t seed = 1;
};

/// Outcome of one driven run.
struct DriveOutcome {
  EngineReport report;
  std::size_t bids_generated = 0;  ///< requests + offers in the workload
  std::size_t bids_admitted = 0;
  std::size_t bids_rejected = 0;  ///< backpressure drops
};

/// A generated, location-stamped workload plus its deterministic
/// submission order (`order[i] < requests.size()` names a request,
/// otherwise offer `order[i] - requests.size()`).  The drive loop
/// (stream/stream_driver.hpp) and every hand-fed harness consume this —
/// SAME bytes in, which is what makes their outputs comparable.
struct TraceStream {
  auction::MarketSnapshot snapshot;
  std::vector<std::size_t> order;
};

/// Generates the workload for `config`: workload from Rng(seed),
/// locations from Rng(seed ^ "location"), requests and offers interleaved
/// by index.
[[nodiscard]] TraceStream make_trace_stream(const TraceDriverConfig& config,
                                            const EngineConfig& engine_config);

}  // namespace decloud::engine
