#include "trace/workload.hpp"

#include <algorithm>
#include <cmath>

#include "auction/allocation.hpp"
#include "auction/candidate_index.hpp"
#include "common/ensure.hpp"

namespace decloud::trace {

void assign_valuations(auction::MarketSnapshot& snapshot, const auction::AuctionConfig& config,
                       const ValuationConfig& valuation, Rng& rng) {
  DECLOUD_EXPECTS(valuation.coeff_lo > 0.0 && valuation.coeff_hi >= valuation.coeff_lo);

  const auto base_cost_of = [&](const auction::Request& r, const auction::Offer& o) {
    switch (valuation.base) {
      case ValuationBase::kFullOfferCost:
        return o.bid;
      case ValuationBase::kDurationProrated: {
        const auto span = static_cast<double>(o.window_length());
        return span > 0.0 ? o.bid * static_cast<double>(r.duration) / span : 0.0;
      }
      case ValuationBase::kFractionProrated:
        return auction::resource_fraction(r, o) * o.bid;
    }
    return 0.0;
  };

  // o* comes from the same CandidateIndex query the mechanism runs, so a
  // 100k-request workload prices in seconds; the best sets are
  // bit-identical to the full-sort oracle (best_offers_reference), so every
  // priced workload and golden trace is unchanged.
  const auction::CandidateIndex index(snapshot);
  auction::CandidateIndex::Scratch scratch;
  for (std::size_t ri = 0; ri < snapshot.requests.size(); ++ri) {
    auto& r = snapshot.requests[ri];
    if (r.bid != 0.0) continue;  // caller already priced it

    const auto best = index.best_offers(ri, config, scratch);
    double base_cost = 0.0;
    if (!best.empty()) {
      // best_offers sorts by offer index; re-rank by QoM to find o*.
      double best_q = -1.0;
      std::size_t best_o = best.front();
      for (const std::size_t o : best) {
        const double q = index.scores().score_sparse(ri, o);
        if (q > best_q) {
          best_q = q;
          best_o = o;
        }
      }
      base_cost = base_cost_of(r, snapshot.offers[best_o]);
    } else {
      // No feasible offer: fall back to the cheapest applicable offer.
      double cheapest = 0.0;
      bool first = true;
      for (const auto& o : snapshot.offers) {
        const double c = base_cost_of(r, o);
        if (c <= 0.0) continue;
        if (first || c < cheapest) {
          cheapest = c;
          first = false;
        }
      }
      base_cost = cheapest;
    }
    if (base_cost <= 0.0) base_cost = 1e-3;  // degenerate block: token value
    r.bid = base_cost * rng.uniform(valuation.coeff_lo, valuation.coeff_hi);
  }
}

auction::MarketSnapshot make_workload(const WorkloadConfig& config,
                                      const auction::AuctionConfig& auction_config, Rng& rng) {
  DECLOUD_EXPECTS(config.requests_per_client >= 1.0);
  DECLOUD_EXPECTS(config.offers_per_provider >= 1.0);

  auction::MarketSnapshot snapshot;
  const GoogleTraceGenerator gen(config.trace);
  const Ec2OfferFactory factory(config.ec2);

  const auto num_clients = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(config.num_requests) /
                                               config.requests_per_client)));
  const auto num_providers = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(config.num_offers) /
                                               config.offers_per_provider)));

  snapshot.requests.reserve(config.num_requests);
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    snapshot.requests.push_back(gen.make_request(RequestId(i), ClientId(i % num_clients),
                                                 static_cast<Time>(i), rng));
  }
  snapshot.offers.reserve(config.num_offers);
  for (std::size_t i = 0; i < config.num_offers; ++i) {
    snapshot.offers.push_back(factory.make_offer(OfferId(i), ProviderId(i % num_providers),
                                                 static_cast<Time>(i), rng));
  }

  assign_valuations(snapshot, auction_config, config.valuation, rng);
  return snapshot;
}

}  // namespace decloud::trace
