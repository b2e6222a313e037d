// Quickstart: build a small market by hand, run the DeCloud double
// auction, and inspect matches, payments and welfare.
//
//   $ ./examples/quickstart
//
// Three clients want containers hosted; two edge providers offer machines.
// The mechanism clusters compatible bids, clears a truthful price, and
// settles with strong budget balance.
#include <cstdio>

#include "auction/mechanism.hpp"
#include "auction/verify.hpp"

using namespace decloud;

namespace {

auction::Request make_request(std::uint64_t id, std::uint64_t client, double cpu, double mem_gb,
                              double disk_gb, Seconds duration, Money valuation) {
  auction::Request r;
  r.id = RequestId(id);
  r.client = ClientId(client);
  r.submitted = static_cast<Time>(id);
  r.resources.set(auction::ResourceSchema::kCpu, cpu);
  r.resources.set(auction::ResourceSchema::kMemory, mem_gb);
  r.resources.set(auction::ResourceSchema::kDisk, disk_gb);
  r.window_start = 0;
  r.window_end = 2 * duration;  // flexible placement inside a 2× window
  r.duration = duration;
  r.bid = valuation;  // DSIC: bidding the true valuation is optimal
  return r;
}

auction::Offer make_offer(std::uint64_t id, std::uint64_t provider, double cpu, double mem_gb,
                          double disk_gb, Seconds available, Money cost) {
  auction::Offer o;
  o.id = OfferId(id);
  o.provider = ProviderId(provider);
  o.submitted = static_cast<Time>(id);
  o.resources.set(auction::ResourceSchema::kCpu, cpu);
  o.resources.set(auction::ResourceSchema::kMemory, mem_gb);
  o.resources.set(auction::ResourceSchema::kDisk, disk_gb);
  o.window_start = 0;
  o.window_end = available;
  o.bid = cost;  // DSIC: reporting the true cost is optimal
  return o;
}

}  // namespace

int main() {
  auction::MarketSnapshot market;

  // Demand: three containers of different shapes and valuations.
  market.requests.push_back(make_request(1, /*client=*/1, 2, 8, 20, 3600, 0.40));
  market.requests.push_back(make_request(2, /*client=*/2, 1, 4, 10, 1800, 0.25));
  market.requests.push_back(make_request(3, /*client=*/3, 4, 16, 50, 7200, 0.90));

  // Supply: two machines for 24 h, plus a pricier spare whose cost can
  // serve as the truthful clearing price (the SBBA z'+1 trick).
  market.offers.push_back(make_offer(1, /*provider=*/1, 8, 32, 200, 86400, 0.60));
  market.offers.push_back(make_offer(2, /*provider=*/2, 4, 16, 100, 86400, 0.35));
  market.offers.push_back(make_offer(3, /*provider=*/3, 8, 32, 200, 86400, 0.95));

  const auction::DeCloudAuction mechanism;  // default AuctionConfig
  // The seed is the verifiable-randomization evidence; on the ledger it is
  // the block hash.
  const auction::RoundResult result = mechanism.run(market, /*seed=*/42);

  std::printf("DeCloud quickstart — %zu requests, %zu offers\n", market.requests.size(),
              market.offers.size());
  std::printf("matches: %zu (tentative %zu, reduced %zu)\n\n", result.matches.size(),
              result.tentative_trades, result.reduced_trades);

  for (const auction::Match& m : result.matches) {
    const auto& r = market.requests[m.request];
    const auto& o = market.offers[m.offer];
    std::printf("  client %llu -> provider %llu : fraction %.3f, pays %.4f (bid %.4f)\n",
                static_cast<unsigned long long>(r.client.value()),
                static_cast<unsigned long long>(o.provider.value()), m.fraction, m.payment,
                r.bid);
  }

  std::printf("\nwelfare             : %.4f\n", result.welfare);
  std::printf("total payments      : %.4f\n", result.total_payments);
  std::printf("total revenues      : %.4f  (strong budget balance)\n", result.total_revenue);

  // Every block is re-verified by the other miners, who re-run the
  // mechanism on the block's evidence and compare bytes; do the same here.
  const auto report = auction::verify_invariants(market, result, mechanism.config());
  std::printf("invariants          : %s\n", report.ok() ? "all hold" : report.violations[0].c_str());
  const bool exact = auction::round_result_json(mechanism.run(market, /*seed=*/42)) ==
                     auction::round_result_json(result);
  std::printf("deterministic replay: %s\n", exact ? "exact" : "MISMATCH");
  return 0;
}
