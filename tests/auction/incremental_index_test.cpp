// CandidateIndexCache contract (DESIGN.md §3h): a cached index carried
// across rounds answers every best-offer query BIT-identically to an index
// freshly built for the current snapshot.  The producer runs with a cache
// while verifiers rebuild from scratch, so any divergence is a consensus
// break — every comparison here is exact, no epsilons.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "auction/allocation.hpp"
#include "auction/candidate_index.hpp"
#include "auction/mechanism.hpp"
#include "auction/score_matrix.hpp"
#include "common/rng.hpp"
#include "ledger/market.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

/// A market whose BlockScale is pinned by the REQUESTS: request 0 carries
/// the per-type maximum amount of every type in play, so offer churn never
/// changes the scale maxima and the cache's bitwise scale check passes
/// across rounds by construction.
MarketSnapshot pinned_scale_snapshot(std::uint64_t seed, std::size_t num_requests,
                                     std::size_t num_offers, std::uint64_t offer_id_base) {
  Rng rng(seed);
  const std::vector<ResourceId> pool = {0, 1, 2, 5};

  MarketSnapshot s;
  for (std::size_t i = 0; i < num_requests; ++i) {
    RequestBuilder b(i);
    b.submitted(static_cast<Time>(rng.uniform_int(0, 50)));
    for (const ResourceId k : pool) {
      // Request 0 pins the block maximum of every type; later bidders stay
      // strictly below it.
      b.resource(k, i == 0 ? 32.0 : rng.uniform(0.1, 8.0));
      b.significance(k, rng.uniform(0.05, 1.0));
    }
    const Time ws = static_cast<Time>(rng.uniform_int(0, 1000));
    const Time len = static_cast<Time>(rng.uniform_int(200, 4000));
    b.window(ws, ws + len);
    b.duration(static_cast<Seconds>(rng.uniform_int(50, len)));
    b.bid(rng.uniform(0.1, 5.0));
    Request r = b.build();
    if (rng.bernoulli(0.5)) r.reputation = rng.uniform(0.0, 1.0);
    s.requests.push_back(r);
  }
  for (std::size_t i = 0; i < num_offers; ++i) {
    OfferBuilder b(offer_id_base + i);
    b.submitted(static_cast<Time>(rng.uniform_int(0, 20)));
    for (const ResourceId k : pool) {
      if (rng.bernoulli(0.8)) b.resource(k, rng.uniform(0.5, 16.0));
    }
    const Time ws = static_cast<Time>(rng.uniform_int(0, 800));
    b.window(ws, ws + static_cast<Time>(rng.uniform_int(500, 8000)));
    b.bid(rng.uniform(0.1, 5.0));
    Offer o = b.build();
    if (rng.bernoulli(0.3)) o.min_reputation = rng.uniform(0.0, 1.0);
    s.offers.push_back(o);
  }
  return s;
}

/// Evolves `s` one round: drop `expire` offers (spread across the book),
/// mutate nothing else, append `arrive` fresh offers with new ids.
MarketSnapshot evolve(const MarketSnapshot& s, std::uint64_t seed, std::size_t expire,
                      std::size_t arrive, std::uint64_t id_base) {
  MarketSnapshot next;
  next.requests = s.requests;
  // Deterministic spread: drop `expire` offers one per stride.
  const std::size_t stride =
      expire == 0 ? SIZE_MAX : std::max<std::size_t>(1, s.offers.size() / expire);
  std::size_t dropped = 0;
  for (std::size_t o = 0; o < s.offers.size(); ++o) {
    if (dropped < expire && o % stride == 0) {
      ++dropped;
      continue;
    }
    next.offers.push_back(s.offers[o]);
  }
  const MarketSnapshot fresh = pinned_scale_snapshot(seed, 1, arrive, id_base);
  next.offers.insert(next.offers.end(), fresh.offers.begin(), fresh.offers.end());
  return next;
}

void expect_cache_matches_fresh(const MarketSnapshot& s, CandidateIndexCache& cache,
                                const AuctionConfig& cfg, const std::string& label) {
  const BlockScale scale(s.requests, s.offers);
  const ScoreMatrix scores(s, scale);
  (void)cache.prepare(s, scale, scores, cfg);

  const CandidateIndex fresh(s, scale, scores);
  CandidateIndex::Scratch cache_scratch;
  CandidateIndex::Scratch fresh_scratch;
  for (std::size_t r = 0; r < s.requests.size(); ++r) {
    ASSERT_EQ(fresh.best_offers(r, s, scores, cfg, fresh_scratch),
              cache.best_offers(r, s, scores, cfg, cache_scratch))
        << label << " r=" << r;
  }
}

TEST(IncrementalIndexTest, CarriedIndexBitIdenticalToFreshBuild) {
  const AuctionConfig cfg;
  CandidateIndexCache cache;
  MarketSnapshot s = pinned_scale_snapshot(7, 24, 120, /*offer_id_base=*/0);
  expect_cache_matches_fresh(s, cache, cfg, "round 0");
  ASSERT_EQ(cache.rebuilds(), 1u);  // first round always builds

  std::uint64_t id_base = 10'000;
  for (std::size_t round = 1; round <= 6; ++round) {
    s = evolve(s, 100 + round, /*expire=*/5, /*arrive=*/7, id_base);
    id_base += 1'000;
    expect_cache_matches_fresh(s, cache, cfg, "round " + std::to_string(round));
  }
  // The pinned scale and small deltas make every later round carry; if
  // this fails the test is not exercising the carry path at all.
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(cache.reuses(), 6u);
}

TEST(IncrementalIndexTest, ScaleShiftForcesRebuildAndStaysExact) {
  const AuctionConfig cfg;
  CandidateIndexCache cache;
  MarketSnapshot s = pinned_scale_snapshot(11, 16, 100, 0);
  expect_cache_matches_fresh(s, cache, cfg, "base");

  // An offer outbidding the pinned maximum changes the BlockScale, which
  // changes EVERY normalized row — carrying would be unsound, so the
  // cache must rebuild (and stay exact either way).
  MarketSnapshot shifted = s;
  shifted.offers[0].resources.set(ResourceId{0}, 64.0);
  expect_cache_matches_fresh(shifted, cache, cfg, "shifted");
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_EQ(cache.reuses(), 0u);
}

TEST(IncrementalIndexTest, DeltaThresholdForcesRebuild) {
  AuctionConfig cfg;
  cfg.residue.index_min_rebuild = 0;
  cfg.residue.index_rebuild_divisor = 1'000'000;  // proportional term ~ 0
  CandidateIndexCache cache;
  MarketSnapshot s = pinned_scale_snapshot(13, 8, 80, 0);
  expect_cache_matches_fresh(s, cache, cfg, "base");
  // Any churn now exceeds the (zero) delta allowance → rebuild.
  s = evolve(s, 99, /*expire=*/3, /*arrive=*/3, 50'000);
  expect_cache_matches_fresh(s, cache, cfg, "churned");
  EXPECT_EQ(cache.rebuilds(), 2u);
}

TEST(IncrementalIndexTest, MechanismRoundBytesMatchWithAndWithoutCache) {
  AuctionConfig cfg;
  cfg.threads = 1;
  const DeCloudAuction mechanism(cfg);

  CandidateIndexCache cache;
  MarketSnapshot s = pinned_scale_snapshot(17, 32, 140, 0);
  std::uint64_t id_base = 20'000;
  for (std::size_t round = 0; round < 5; ++round) {
    const std::string bare = round_result_json(mechanism.run(s, 42 + round));
    const std::string cached =
        round_result_json(mechanism.run(s, 42 + round, nullptr, &cache));
    ASSERT_EQ(bare, cached) << "round " << round;
    s = evolve(s, 300 + round, 4, 6, id_base);
    id_base += 1'000;
  }
  EXPECT_GE(cache.reuses(), 1u);
}

TEST(IncrementalIndexTest, OrchestratedMarketIdenticalWithAndWithoutReuse) {
  // End-to-end: the SAME submissions through two orchestrators, one
  // carrying its index across rounds, one rebuilding every block.  The
  // verifier inside each accepted round already replays the producer's
  // allocation from a fresh build, so acceptance itself checks the cache;
  // here we additionally require the lifetime stats to agree exactly.
  const auto run = [](bool reuse) {
    ledger::MarketConfig config;
    config.num_verifiers = 1;
    config.consensus.difficulty_bits = 4;
    config.reuse_candidate_index = reuse;
    ledger::MarketOrchestrator market(config);

    trace::WorkloadConfig wc;
    wc.num_requests = 40;
    wc.num_offers = 80;
    Rng rng(5);
    const MarketSnapshot workload = trace::make_workload(wc, config.consensus.auction, rng);
    for (const auto& r : workload.requests) market.submit(r);
    for (const auto& o : workload.offers) market.submit(o);
    market.drain(/*max_rounds=*/8);
    return market.stats();
  };

  const ledger::MarketStats with_cache = run(true);
  const ledger::MarketStats without = run(false);
  EXPECT_EQ(with_cache.rounds, without.rounds);
  EXPECT_EQ(with_cache.requests_allocated, without.requests_allocated);
  EXPECT_EQ(with_cache.requests_abandoned, without.requests_abandoned);
  EXPECT_EQ(with_cache.offers_abandoned, without.offers_abandoned);
  EXPECT_EQ(with_cache.bids_carried, without.bids_carried);
  EXPECT_EQ(with_cache.total_welfare, without.total_welfare);    // bitwise
  EXPECT_EQ(with_cache.total_settled, without.total_settled);    // bitwise
  EXPECT_EQ(with_cache.allocation_latency, without.allocation_latency);
}

}  // namespace
}  // namespace decloud::auction
