// The scoring contract (DESIGN.md §3g): CandidateIndex is the one
// production best-offer path, and best_offers_reference — the full-sort
// implementation — is its oracle.  The per-pair scorers (quality_of_match,
// ScoreMatrix::score_sparse) and the index query are BIT-identical to
// that oracle: same doubles, same best-offer sets.  Miners replay
// allocations on arbitrary hardware, so any divergence is a consensus
// break, not a tolerance question.  Every comparison below is
// exact; there are no epsilons anywhere in this file.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "auction/allocation.hpp"
#include "auction/best_select.hpp"
#include "auction/candidate_index.hpp"
#include "auction/mechanism.hpp"
#include "auction/score_matrix.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/sink.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

/// Hand-rolled random market exercising the index's edge cases on purpose:
///   * resource ids with gaps (3, 4, 6, ... never appear → zero-max
///     BlockScale dimensions inside the dense row);
///   * a type declared with amount 0 on every request (declared but
///     normalizing to 0 — its Eq. 18 term is exactly +0.0);
///   * `disjoint` = half the offers draw from a type pool sharing nothing
///     with the requests, so many pairs score exactly 0 and whole cells
///     die on the type-mask test.
MarketSnapshot random_snapshot(std::uint64_t seed, std::size_t num_requests,
                               std::size_t num_offers, bool disjoint) {
  Rng rng(seed);
  const std::vector<ResourceId> req_pool = {0, 1, 2, 5, 7, 10};
  const std::vector<ResourceId> off_pool = {12, 13, 15};  // disjoint from req_pool

  MarketSnapshot s;
  s.requests.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    RequestBuilder b(i);
    b.submitted(static_cast<Time>(rng.uniform_int(0, 50)));
    // Rebuild resources from the pool (the builder pre-set cpu/mem/disk;
    // overwrite them and add the pool extras).
    for (const ResourceId k : req_pool) {
      if (rng.bernoulli(0.6)) {
        b.resource(k, rng.uniform(0.1, 8.0));
        b.significance(k, rng.uniform(0.05, 1.0));
      }
    }
    b.resource(ResourceId{14}, 0.0);  // declared, block max 0 → ρ' = 0
    const Time ws = static_cast<Time>(rng.uniform_int(0, 2000));
    const Time len = static_cast<Time>(rng.uniform_int(100, 4000));
    b.window(ws, ws + len);
    b.duration(static_cast<Seconds>(rng.uniform_int(50, len)));
    b.bid(rng.uniform(0.1, 5.0));
    Request r = b.build();
    if (rng.bernoulli(0.5)) r.reputation = rng.uniform(0.0, 1.0);
    s.requests.push_back(r);
  }

  s.offers.reserve(num_offers);
  for (std::size_t i = 0; i < num_offers; ++i) {
    OfferBuilder b(i);
    b.submitted(static_cast<Time>(rng.uniform_int(0, 20)));
    const bool off_side = disjoint && i % 2 == 0;
    for (const ResourceId k : off_side ? off_pool : req_pool) {
      if (rng.bernoulli(0.7)) b.resource(k, rng.uniform(0.5, 16.0));
    }
    const Time ws = static_cast<Time>(rng.uniform_int(0, 1500));
    const Time len = static_cast<Time>(rng.uniform_int(500, 8000));
    b.window(ws, ws + len);
    b.bid(rng.uniform(0.1, 5.0));
    Offer o = b.build();
    if (rng.bernoulli(0.3)) o.min_reputation = rng.uniform(0.0, 1.0);
    s.offers.push_back(o);
  }
  return s;
}

/// Every scorer and the index query against the oracle, exactly.
void expect_paths_identical(const MarketSnapshot& s, const std::string& label) {
  const AuctionConfig cfg;
  const BlockScale scale(s.requests, s.offers);
  const CandidateIndex index(s);
  CandidateIndex::Scratch scratch;

  for (std::size_t r = 0; r < s.requests.size(); ++r) {
    for (std::size_t o = 0; o < s.offers.size(); ++o) {
      const double q = quality_of_match(s.requests[r], s.offers[o], scale);
      ASSERT_EQ(q, index.scores().score_sparse(r, o)) << label << " r=" << r << " o=" << o;
      // The static bound must dominate the computed q (the pruning
      // soundness condition, including its floating-point rounding).
      ASSERT_LE(q, index.upper_bound(o)) << label << " ub r=" << r << " o=" << o;
    }

    const auto reference = best_offers_reference(s.requests[r], s, scale, cfg);
    ASSERT_EQ(reference, index.best_offers(r, cfg, scratch))
        << label << " index r=" << r;
  }
}

TEST(PrunedScoringTest, RandomizedOverlappingTypes) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    expect_paths_identical(random_snapshot(seed, 48, 96, /*disjoint=*/false),
                           "overlap seed=" + std::to_string(seed));
  }
}

TEST(PrunedScoringTest, RandomizedDisjointTypes) {
  for (const std::uint64_t seed : {55u, 66u, 77u}) {
    expect_paths_identical(random_snapshot(seed, 32, 80, /*disjoint=*/true),
                           "disjoint seed=" + std::to_string(seed));
  }
}

TEST(PrunedScoringTest, SmallBooks) {
  // Books of a few offers run through the index in production too, so
  // they are checked against the oracle like large ones.
  for (const std::size_t offers : {1u, 2u, 7u, 31u, 63u}) {
    for (const bool disjoint : {false, true}) {
      const std::uint64_t seed = 100 + offers + (disjoint ? 1 : 0);
      expect_paths_identical(random_snapshot(seed, 24, offers, disjoint),
                             "small offers=" + std::to_string(offers) +
                                 " disjoint=" + std::to_string(disjoint));
    }
  }
}

TEST(PrunedScoringTest, WorkloadSnapshots) {
  for (const std::uint64_t seed : {1u, 9u}) {
    trace::WorkloadConfig wc;
    wc.num_requests = 96;
    wc.num_offers = 80;
    Rng rng(seed);
    expect_paths_identical(trace::make_workload(wc, AuctionConfig{}, rng),
                           "workload seed=" + std::to_string(seed));
  }
}

TEST(PrunedScoringTest, CiTraceMatchesReference) {
  // The trace CI's round_dump thread-invariance step runs on.
  trace::WorkloadConfig wc;
  wc.num_requests = 2000;
  wc.num_offers = 1000;
  Rng rng(7);
  expect_paths_identical(trace::make_workload(wc, AuctionConfig{}, rng), "ci trace");
}

TEST(PrunedScoringTest, RoundResultBytesThreadInvariant) {
  // The whole-mechanism contract, as CI enforces it: runs serialize to the
  // SAME canonical JSON bytes at 1, 2 and hardware threads.
  // round_result_json prints %.17g, so byte equality here is bit equality
  // of every double in the allocation.
  trace::WorkloadConfig wc;
  wc.num_requests = 200;
  wc.num_offers = 100;
  Rng rng(3);
  const auto snapshot = trace::make_workload(wc, AuctionConfig{}, rng);

  AuctionConfig serial;
  serial.threads = 1;
  const std::string want = round_result_json(DeCloudAuction(serial).run(snapshot, 42));
  ASSERT_FALSE(want.empty());

  for (const std::size_t threads : {std::size_t{2}, ThreadPool::default_workers()}) {
    AuctionConfig cfg;
    cfg.threads = threads;
    EXPECT_EQ(want, round_result_json(DeCloudAuction(cfg).run(snapshot, 42)))
        << "threads=" << threads;
  }
}

TEST(PrunedScoringTest, ScoreSpanCountsScoredCandidates) {
  // The score span's work is the number of candidates the index scored —
  // on a catalog-shaped book far fewer than the R·O pairs — and, like the
  // allocation, independent of the thread count.
  trace::WorkloadConfig wc;
  wc.num_requests = 400;
  wc.num_offers = 300;
  Rng rng(5);
  const auto snapshot = trace::make_workload(wc, AuctionConfig{}, rng);

  const auto score_work = [&](std::size_t threads) {
    AuctionConfig cfg;
    cfg.threads = threads;
    obs::MetricsSink sink("score");
    (void)DeCloudAuction(cfg).run(snapshot, 1, &sink);
    for (const obs::SpanRecord& span : sink.tracer().spans()) {
      if (span.name == "score") return span.work;
    }
    ADD_FAILURE() << "no score span";
    return std::uint64_t{0};
  };

  const CandidateIndex index(snapshot);
  CandidateIndex::Scratch scratch;
  std::uint64_t want = 0;
  for (std::size_t r = 0; r < snapshot.requests.size(); ++r) {
    (void)index.best_offers(r, AuctionConfig{}, scratch);
    want += scratch.scored;
  }

  const std::uint64_t serial = score_work(1);
  EXPECT_EQ(want, serial);
  EXPECT_GT(serial, 0u);
  EXPECT_LT(serial, std::uint64_t{snapshot.requests.size()} * snapshot.offers.size());
  for (const std::size_t threads : {std::size_t{2}, ThreadPool::default_workers()}) {
    EXPECT_EQ(serial, score_work(threads)) << "threads=" << threads;
  }
}

TEST(PrunedScoringTest, TieGroupDedupIsExact) {
  // Catalog-shaped market: many offers byte-identical in (window,
  // resources) — exact q ties against every request, ranked only by
  // (submitted, id).  The index keeps just kGroupCap members of each group
  // in its scan cells (structural fact 4 in candidate_index.hpp); the
  // query must still match the reference exactly, both under the
  // default cap and under a cap LARGER than kGroupCap (which forces the
  // overflow fallback).
  Rng rng(123);
  MarketSnapshot s;
  for (std::size_t i = 0; i < 24; ++i) {
    RequestBuilder b(i);
    b.resource(ResourceId{0}, rng.uniform(0.5, 4.0));
    b.significance(ResourceId{0}, rng.uniform(0.2, 1.0));
    b.resource(ResourceId{1}, rng.uniform(1.0, 16.0));
    b.significance(ResourceId{1}, rng.uniform(0.2, 1.0));
    const Time ws = static_cast<Time>(rng.uniform_int(0, 500));
    b.window(ws, ws + 2000);
    b.duration(1000);
    s.requests.push_back(b.build());
  }
  // Three profiles × one shared window, ~30 offers each: group sizes far
  // beyond kGroupCap (16) and beyond any cap used below.
  const double profile[3][2] = {{2.0, 8.0}, {4.0, 16.0}, {8.0, 32.0}};
  for (std::size_t i = 0; i < 90; ++i) {
    OfferBuilder b(i);
    b.submitted(static_cast<Time>(rng.uniform_int(0, 40)));
    b.resource(ResourceId{0}, profile[i % 3][0]);
    b.resource(ResourceId{1}, profile[i % 3][1]);
    b.window(0, 86400);
    b.bid(rng.uniform(0.1, 5.0));  // bid varies WITHIN a group: not keyed
    s.offers.push_back(b.build());
  }

  const BlockScale scale(s.requests, s.offers);
  const CandidateIndex index(s);
  CandidateIndex::Scratch scratch;
  for (const std::size_t cap : {std::size_t{1}, std::size_t{4},
                                CandidateIndex::kGroupCap,
                                CandidateIndex::kGroupCap + 9}) {
    AuctionConfig cfg;
    cfg.max_best_offers = cap;
    for (std::size_t r = 0; r < s.requests.size(); ++r) {
      ASSERT_EQ(best_offers_reference(s.requests[r], s, scale, cfg),
                index.best_offers(r, cfg, scratch))
          << "cap=" << cap << " r=" << r;
    }
  }
}

TEST(PrunedScoringTest, TieGroupKeyIncludesMinReputation) {
  // Regression: offers identical in (window, resources) but with DIFFERENT
  // min_reputation gates give different feasibility verdicts, so they must
  // NOT share a tie group.  With a key that ignores the gate, a catalog of
  // > kGroupCap such offers puts the later members in the overflow list —
  // never scanned under the default cap — and a low-reputation request
  // silently loses its only feasible offers, diverging from the reference.
  MarketSnapshot s;
  for (std::size_t i = 0; i < 8; ++i) {
    Request r = RequestBuilder(i).build();
    r.reputation = (i % 2 == 0) ? 0.5 : 1.0;  // half rejected by the gate
    s.requests.push_back(r);
  }
  // One catalog profile, one window, 2 × 20 offers (each reputation
  // subgroup larger than kGroupCap).  The 20 gated offers come FIRST in
  // (submitted, id) order, so a reputation-blind key would fill every
  // kGroupCap scan slot with offers a reputation-0.5 request can never use.
  for (std::size_t i = 0; i < 40; ++i) {
    Offer o = OfferBuilder(i).build();  // submitted = id by default
    o.min_reputation = i < 20 ? 0.8 : 0.0;
    s.offers.push_back(o);
  }

  const BlockScale scale(s.requests, s.offers);
  const CandidateIndex index(s);
  CandidateIndex::Scratch scratch;
  for (const std::size_t cap : {std::size_t{1}, std::size_t{4},
                                CandidateIndex::kGroupCap + 2}) {
    AuctionConfig cfg;
    cfg.max_best_offers = cap;
    for (std::size_t r = 0; r < s.requests.size(); ++r) {
      ASSERT_EQ(best_offers_reference(s.requests[r], s, scale, cfg),
                index.best_offers(r, cfg, scratch))
          << "cap=" << cap << " r=" << r;
    }
  }
  // Sanity on the scenario itself: under the default cap a gated request's
  // best set is the four earliest UNGATED offers — non-empty, and none of
  // the high-threshold catalog entries.
  const AuctionConfig cfg;
  EXPECT_EQ((std::vector<std::size_t>{20, 21, 22, 23}),
            index.best_offers(0, cfg, scratch));
}

// --- Bounded top-k tie-break regression (the (q, submitted, id) order the
// full sort used must survive the selection rewrite verbatim).

TEST(BestOfferTieBreak, EqualQualityFallsBackToSubmittedThenId) {
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(0).window(0, 3600).duration(1800).build());
  // Six byte-identical offers (equal q against the request) differing only
  // in (submitted, id).  Cap 4 → the four earliest by (submitted, id) win:
  // submitted 1 (id 4), then submitted 2 in id order (ids 1, 2, 5); the
  // submitted-7 and submitted-9 offers are displaced.
  const Time submitted[] = {9, 2, 2, 7, 1, 2};
  for (std::size_t i = 0; i < 6; ++i) {
    s.offers.push_back(OfferBuilder(i).submitted(submitted[i]).window(0, 86400).build());
  }
  const AuctionConfig cfg;  // max_best_offers = 4
  const BlockScale scale(s.requests, s.offers);

  const auto got = test::index_best_offers(s, 0, cfg);
  EXPECT_EQ((std::vector<std::size_t>{1, 2, 4, 5}), got);
  EXPECT_EQ(best_offers_reference(s.requests[0], s, scale, cfg), got);
}

TEST(BestOfferTieBreak, SelectorIsInsertionOrderIndependent) {
  // The selection is a function of the SET of (offer, q) pairs, not of the
  // order they are considered in — the index feeds candidates in cell
  // bound order, and the result must equal the oracle's full sort.
  std::vector<Offer> offers;
  const Time submitted[] = {4, 4, 1, 3, 3, 2};
  for (std::size_t i = 0; i < 6; ++i) {
    offers.push_back(OfferBuilder(i).submitted(submitted[i]).build());
  }
  const double q[] = {0.5, 0.8, 0.5, 0.8, 0.5, 0.5};

  const auto select = [&](const std::vector<std::size_t>& order) {
    BestOfferSelector sel(offers, 4);
    for (const std::size_t o : order) sel.consider(o, q[o]);
    return sel.finish(0.0);  // ratio 0: cap is the only cut
  };
  // Ranking: q=0.8 → ids 3 (submitted 3), 1 (submitted 4); then q=0.5 →
  // id 2 (submitted 1), id 5 (submitted 2), id 4, id 0.  Cap 4 keeps
  // {3, 1, 2, 5} → sorted {1, 2, 3, 5}.
  const std::vector<std::size_t> want = {1, 2, 3, 5};
  EXPECT_EQ(want, select({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(want, select({5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(want, select({3, 1, 5, 0, 2, 4}));
  EXPECT_EQ(want, select({2, 0, 4, 5, 1, 3}));
}

TEST(BestOfferTieBreak, ThresholdPrefixMatchesFullSortSemantics) {
  // best_offer_ratio must cut a PREFIX of the held ranking — an offer below
  // ratio·top never rides in on the tie-break.
  std::vector<Offer> offers;
  for (std::size_t i = 0; i < 4; ++i) offers.push_back(OfferBuilder(i).build());
  BestOfferSelector sel(offers, 4);
  sel.consider(0, 1.0);
  sel.consider(1, 0.95);
  sel.consider(2, 0.89);  // below 0.9 · 1.0
  sel.consider(3, 0.91);
  EXPECT_EQ((std::vector<std::size_t>{0, 1, 3}), sel.finish(0.9));
}

}  // namespace
}  // namespace decloud::auction
