#include "auction/mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "auction/audit.hpp"
#include "auction/candidate_index.hpp"
#include "auction/cluster.hpp"
#include "auction/economics.hpp"
#include "auction/feasibility.hpp"
#include "auction/miniauction.hpp"
#include "auction/pricing.hpp"
#include "auction/trade_reduction.hpp"
#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/sink.hpp"

namespace decloud::auction {

std::vector<std::size_t> best_offers_reference(const Request& r, const MarketSnapshot& snapshot,
                                               const BlockScale& scale,
                                               const AuctionConfig& config) {
  struct Ranked {
    std::size_t offer;
    double q;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(snapshot.offers.size());
  for (std::size_t o = 0; o < snapshot.offers.size(); ++o) {
    const Offer& offer = snapshot.offers[o];
    if (!feasible(offer, r, config)) continue;
    const double q = quality_of_match(r, offer, scale);
    if (q <= 0.0) continue;  // no common resource type: never ranked
    ranked.push_back({o, q});
  }
  if (ranked.empty()) return {};

  std::sort(ranked.begin(), ranked.end(), [&](const Ranked& a, const Ranked& b) {
    if (a.q != b.q) return a.q > b.q;
    const Offer& oa = snapshot.offers[a.offer];
    const Offer& ob = snapshot.offers[b.offer];
    if (oa.submitted != ob.submitted) return oa.submitted < ob.submitted;  // earlier wins ties
    return oa.id < ob.id;
  });

  const double threshold = config.best_offer_ratio * ranked.front().q;
  std::vector<std::size_t> best;
  for (const auto& rk : ranked) {
    if (rk.q < threshold || best.size() >= config.max_best_offers) break;
    best.push_back(rk.offer);
  }
  std::sort(best.begin(), best.end());
  return best;
}

namespace {

/// Finalizes one match into the round result.
void finalize_match(RoundResult& result, const MarketSnapshot& snapshot, std::size_t request,
                    std::size_t offer, double nu_r, double price, ResourceVector granted) {
  const Request& r = snapshot.requests[request];
  const Offer& o = snapshot.offers[offer];
  Match m;
  m.request = request;
  m.offer = offer;
  m.granted = std::move(granted);
  m.fraction = resource_fraction(r, o);
  m.unit_price = price;
  m.payment = nu_r * static_cast<double>(r.duration) * price;
  result.welfare += match_welfare(r, o);
  result.total_payments += m.payment;
  result.total_revenue += m.payment;  // strong budget balance by construction
  result.payment_by_request[request] += m.payment;
  result.revenue_by_offer[offer] += m.payment;
  result.matches.push_back(m);
}

/// Round-level telemetry, recorded once per run at every exit point.  Only
/// the producer passes a sink, so `auction.runs` counts producer mechanism
/// runs, re-mines and rejected blocks included — not accepted rounds.  All
/// values are deterministic functions of the (deterministic) result, so an
/// instrumented run exports the same bytes regardless of thread count.
void record_round(obs::MetricsSink* sink, const MarketSnapshot& snapshot,
                  const RoundResult& result) {
  if (sink == nullptr) return;
  obs::MetricsRegistry& m = sink->metrics();
  m.counter("auction.runs").add(1);
  m.counter("auction.requests").add(snapshot.requests.size());
  m.counter("auction.offers").add(snapshot.offers.size());
  m.counter("auction.matches").add(result.matches.size());
  m.counter("auction.tentative_trades").add(result.tentative_trades);
  m.counter("auction.reduced_trades").add(result.reduced_trades);
  m.counter("auction.lottery_clusters").add(result.lottery_clusters);
  m.gauge("auction.welfare").add(result.welfare);
  m.gauge("auction.payments").add(result.total_payments);
  stats::Histogram& prices = m.histogram("auction.clearing_price", 0.0, 4.0, 16);
  for (const double p : result.clearing_prices) prices.add(p);
}

}  // namespace

RoundResult DeCloudAuction::run(const MarketSnapshot& snapshot, std::uint64_t seed,
                                obs::MetricsSink* sink) const {
  for (const auto& r : snapshot.requests) validate(r);
  for (const auto& o : snapshot.offers) validate(o);

  RoundResult result;
  result.payment_by_request.assign(snapshot.requests.size(), 0.0);
  result.revenue_by_offer.assign(snapshot.offers.size(), 0.0);
  if (snapshot.requests.empty() || snapshot.offers.empty()) {
    if constexpr (audit::kEnabled) audit::check_round(snapshot, result, config_);
    record_round(sink, snapshot, result);
    return result;
  }

  // --- Step 1–2: rank best offers per request and form clusters (Alg. 2).
  // Ranking goes through the CandidateIndex and fans out across requests —
  // each request's query is independent, and every worker writes only its
  // own slots of `best_sets` and `scored`, so the fan-out is race-free and
  // its output does not depend on the worker count.  Cluster folding stays
  // serial and ordered: Algorithm 2 is fold-order-sensitive, and the
  // ledger's collective verification replays this allocation byte-for-byte.
  std::vector<std::size_t> request_order(snapshot.requests.size());
  std::vector<std::vector<std::size_t>> best_sets(snapshot.requests.size());
  {
    // Only the calling thread touches the sink: the fan-out workers write
    // their own slots and nothing else, so one span wrapping the whole
    // parallel section is race-free by construction.
    obs::SpanScope span(sink, "score");

    std::iota(request_order.begin(), request_order.end(), std::size_t{0});
    std::sort(request_order.begin(), request_order.end(), [&](std::size_t a, std::size_t b) {
      const Request& ra = snapshot.requests[a];
      const Request& rb = snapshot.requests[b];
      if (ra.submitted != rb.submitted) return ra.submitted < rb.submitted;
      return ra.id < rb.id;
    });

    const std::size_t workers =
        config_.threads == 0 ? ThreadPool::default_workers() : config_.threads;
    std::optional<ThreadPool> pool;
    if (workers > 1 && snapshot.requests.size() >= kMinParallelRequests) pool.emplace(workers);

    // Candidates scored per request, summed serially below so the span's
    // work stays thread-invariant.
    std::vector<std::size_t> scored(snapshot.requests.size(), 0);
    const CandidateIndex index(snapshot);
    run_chunked(pool ? &*pool : nullptr, 0, snapshot.requests.size(), [&](std::size_t ri) {
      // One scratch per worker thread: the hot loop never allocates after
      // its first few requests, and workers share no mutable state.
      thread_local CandidateIndex::Scratch scratch;
      best_sets[ri] = index.best_offers(ri, config_, scratch);
      scored[ri] = scratch.scored;
    });
    span.add_work(std::accumulate(scored.begin(), scored.end(), std::uint64_t{0}));
  }

  ClusterSet cluster_set;
  {
    obs::SpanScope span(sink, "cluster");
    for (const std::size_t ri : request_order) {
      if (!best_sets[ri].empty()) cluster_set.update(ri, best_sets[ri]);
    }
    span.add_work(cluster_set.size());
    if (sink != nullptr) sink->metrics().counter("auction.clusters").add(cluster_set.size());
  }

  // --- Step 3: normalization + greedy tentative allocation per cluster.
  CapacityTracker capacity(snapshot.offers);
  std::vector<char> request_taken(snapshot.requests.size(), 0);
  std::vector<PricedCluster> priced;
  std::vector<MiniAuction> auctions;
  {
    obs::SpanScope span(sink, "miniauction");
    priced.reserve(cluster_set.size());
    for (std::size_t ci = 0; ci < cluster_set.size(); ++ci) {
      priced.push_back(price_cluster(ci, compute_economics(cluster_set.clusters()[ci], snapshot),
                                     snapshot, capacity, request_taken, config_));
      result.tentative_trades += priced.back().tentative.size();
    }

    if (!config_.truthful) {
      // Non-truthful greedy benchmark: every tentative match trades; no
      // clearing price, no exclusions (welfare/satisfaction comparisons only).
      for (const auto& pc : priced) {
        for (const auto& m : pc.tentative) {
          const double nu = pc.econ.nu_of_request(m.request);
          finalize_match(result, snapshot, m.request, m.offer, std::isnan(nu) ? 0.0 : nu, 0.0,
                         m.consumed);
        }
      }
      if constexpr (audit::kEnabled) audit::check_round(snapshot, result, config_);
      record_round(sink, snapshot, result);
      return result;
    }

    // --- Step 4: mini-auctions (Alg. 3), processed in descending welfare.
    // The ablation path clears every cluster alone instead of grouping.
    if (config_.group_mini_auctions) {
      auctions = create_mini_auctions(priced);
    } else {
      for (std::size_t ci = 0; ci < priced.size(); ++ci) {
        if (!priced[ci].tradeable()) continue;
        auctions.push_back({.clusters = {ci}, .welfare = priced[ci].welfare});
      }
    }
    std::sort(auctions.begin(), auctions.end(), [](const MiniAuction& a, const MiniAuction& b) {
      if (a.welfare != b.welfare) return a.welfare > b.welfare;
      return a.clusters < b.clusters;
    });
    span.add_work(auctions.size());
  }

  // --- Step 5: trade reduction + verifiable randomization (Alg. 4).
  obs::SpanScope trade_reduction_span(sink, "trade_reduction");
  trade_reduction_span.add_work(auctions.size());
  Rng rng(seed);
  std::vector<char> cluster_done(priced.size(), 0);
  std::vector<char> request_processed(snapshot.requests.size(), 0);
  std::vector<char> offer_processed(snapshot.offers.size(), 0);
  std::vector<char> request_matched(snapshot.requests.size(), 0);

  for (const MiniAuction& auction : auctions) {
    const PriceQuote quote = determine_price(auction, priced, cluster_done);

    // Snapshot the state the price was quoted against, so the audit can
    // re-derive Eq. 20 after processing has consumed the tentative lists.
    [[maybe_unused]] std::vector<char> audit_done_before;
    [[maybe_unused]] std::vector<char> audit_tradeable_before;
    [[maybe_unused]] const std::size_t audit_first_match = result.matches.size();
    if constexpr (audit::kEnabled) {
      audit_done_before = cluster_done;
      audit_tradeable_before.resize(priced.size());
      for (std::size_t ci = 0; ci < priced.size(); ++ci) {
        audit_tradeable_before[ci] = priced[ci].tradeable() ? 1 : 0;
      }
    }

    if (!quote.valid) {
      if constexpr (audit::kEnabled) {
        audit::check_mini_auction(snapshot, priced, auction, quote, audit_done_before,
                                  audit_tradeable_before, result, audit_first_match);
      }
      for (const std::size_t ci : auction.clusters) cluster_done[ci] = 1;
      continue;
    }
    const double p = quote.price;
    result.clearing_prices.push_back(p);

    const auto request_excluded = [&](std::size_t request) {
      return quote.setter_is_request && snapshot.requests[request].client == quote.client;
    };
    const auto offer_excluded = [&](std::size_t offer) {
      return !quote.setter_is_request && snapshot.offers[offer].provider == quote.provider;
    };

    for (const std::size_t ci : auction.clusters) {
      if (cluster_done[ci]) continue;
      PricedCluster& pc = priced[ci];

      // Filter the tentative matches: drop the price-setter's bids, bids
      // the price cannot clear, and participants consumed by an earlier
      // mini-auction.
      std::vector<TentativeMatch> survivors;
      for (auto& m : pc.tentative) {
        const bool drop = request_excluded(m.request) || offer_excluded(m.offer) ||
                          request_processed[m.request] || offer_processed[m.offer] ||
                          request_matched[m.request] ||
                          pc.econ.vhat_of(m.request) < p || pc.econ.chat_of(m.offer) > p;
        if (drop) {
          capacity.release(m.offer, m.consumed);
          ++result.reduced_trades;  // a trade lost to the reduction/filter
        } else {
          survivors.push_back(std::move(m));
        }
      }

      // Eligibility under the clearing price (for the randomization rule).
      const auto eligible_request = [&](const RequestEconomics& re) {
        return re.vhat >= p && !request_excluded(re.request) &&
               !request_processed[re.request] && !request_matched[re.request];
      };
      const auto eligible_offer = [&](const OfferEconomics& oe) {
        return oe.chat <= p && !offer_excluded(oe.offer) && !offer_processed[oe.offer];
      };

      // Detect a supply/demand imbalance (Section IV-D: both directions
      // are gameable, so the cluster's allocation must be re-drawn
      // pseudo-randomly from the block evidence):
      //   * demand surplus — an eligible-but-unallocated request that some
      //     eligible offer could still host ("we also apply random
      //     exclusion of requests in case of a supply shortage");
      //   * supply surplus — an eligible offer left empty while another
      //     eligible offer carries a request it could equally host ("the
      //     solution is to ... exclude redundant offers randomly").
      std::vector<char> in_survivors(snapshot.requests.size(), 0);
      for (const auto& m : survivors) in_survivors[m.request] = 1;
      // Both triggers use FULL-capacity feasibility, not remaining
      // capacity: the lottery releases the survivors before re-drawing, so
      // a contender blocked only by currently-consumed capacity is still a
      // contender — checking remaining capacity here would leave a
      // rank-by-bid allocation standing exactly when machines are full,
      // which is the gameable case.
      bool imbalance = false;
      for (const auto& re : pc.econ.requests) {
        if (!eligible_request(re) || in_survivors[re.request]) continue;
        const Request& r = snapshot.requests[re.request];
        for (const auto& oe : pc.econ.offers) {
          if (!eligible_offer(oe)) continue;
          const Offer& o = snapshot.offers[oe.offer];
          if (feasible(o, r, config_) && match_welfare(r, o) >= 0.0) {
            imbalance = true;
            break;
          }
        }
        if (imbalance) break;
      }
      if (!imbalance) {
        // Supply surplus: an eligible offer that could serve a request
        // currently assigned to a *different* offer means providers
        // compete for demand — a provider could capture that assignment by
        // shading its reported cost, so the assignment must be drawn by
        // lottery instead (Section IV-D).
        for (const auto& oe : pc.econ.offers) {
          if (!eligible_offer(oe)) continue;
          const Offer& o = snapshot.offers[oe.offer];
          for (const auto& m : survivors) {
            if (m.offer == oe.offer) continue;
            const Request& r = snapshot.requests[m.request];
            if (feasible(o, r, config_) && match_welfare(r, o) >= 0.0) {
              imbalance = true;
              break;
            }
          }
          if (imbalance) break;
        }
      }

      if (imbalance) {
        ++result.lottery_clusters;
        // Release the survivors and re-draw the whole cluster allocation:
        // requests in random order, offers in a random ranking, first-fit.
        // The randomness comes from the block evidence (verifiable), the
        // assignment never consults bids (truthfulness-preserving), and
        // first-fit keeps the packing — hence welfare — close to greedy.
        for (const auto& m : survivors) capacity.release(m.offer, m.consumed);
        survivors.clear();

        std::vector<std::size_t> candidates;
        for (const auto& re : pc.econ.requests) {
          if (eligible_request(re)) candidates.push_back(re.request);
        }
        rng.shuffle(candidates);
        std::vector<std::size_t> hosts;
        for (const auto& oe : pc.econ.offers) {
          if (eligible_offer(oe)) hosts.push_back(oe.offer);
        }
        rng.shuffle(hosts);
        for (const std::size_t req : candidates) {
          const Request& r = snapshot.requests[req];
          for (const std::size_t host : hosts) {
            const Offer& o = snapshot.offers[host];
            if (!feasible(o, r, config_) || !capacity.can_host(host, r, config_.flexibility) ||
                match_welfare(r, o) < 0.0) {
              continue;
            }
            TentativeMatch m;
            m.request = req;
            m.offer = host;
            m.consumed = capacity.consume(host, r);
            survivors.push_back(std::move(m));
            break;
          }
        }
      }

      // Finalize this cluster at price p (Eq. 19 payments).
      for (const auto& m : survivors) {
        const double nu = pc.econ.nu_of_request(m.request);
        DECLOUD_ENSURES_MSG(!std::isnan(nu), "matched request must have cluster economics");
        finalize_match(result, snapshot, m.request, m.offer, nu, p, m.consumed);
        request_matched[m.request] = 1;
      }
      pc.tentative.clear();
      cluster_done[ci] = 1;
    }

    // "remove r, o ∈ auction from ∀a ∈ auctions" — everyone who took part
    // in this mini-auction had their chance.
    for (const std::size_t ci : auction.clusters) {
      for (const auto& re : priced[ci].econ.requests) request_processed[re.request] = 1;
      for (const auto& oe : priced[ci].econ.offers) offer_processed[oe.offer] = 1;
    }

    if constexpr (audit::kEnabled) {
      audit::check_mini_auction(snapshot, priced, auction, quote, audit_done_before,
                                audit_tradeable_before, result, audit_first_match);
    }
  }

  // reduced_trades was accumulated at the filter stage: it counts trades
  // lost to the price-setter exclusion and the price filter (the paper's
  // Fig. 5c metric).  Welfare lost to the verifiable lottery shows up in
  // the welfare figures instead.
  if constexpr (audit::kEnabled) audit::check_round(snapshot, result, config_);
  record_round(sink, snapshot, result);
  return result;
}

}  // namespace decloud::auction
