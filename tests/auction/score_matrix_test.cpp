#include "auction/score_matrix.hpp"

#include <gtest/gtest.h>

#include "auction/candidate_index.hpp"
#include "auction/mechanism.hpp"
#include "auction/qom.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

/// The ScoreMatrix score must be BIT-identical to the sparse walk —
/// collective verification replays allocations, so "close enough" is not
/// enough.
void expect_all_pairs_identical(const MarketSnapshot& s) {
  const BlockScale scale(s.requests, s.offers);
  const ScoreMatrix m(s, scale);
  for (std::size_t r = 0; r < s.requests.size(); ++r) {
    for (std::size_t o = 0; o < s.offers.size(); ++o) {
      const double sparse = quality_of_match(s.requests[r], s.offers[o], scale);
      EXPECT_EQ(sparse, m.score_sparse(r, o)) << "pair (r=" << r << ", o=" << o << ")";
    }
  }
}

TEST(ScoreMatrixTest, MatchesSparseOnRandomizedWorkloads) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u}) {
    trace::WorkloadConfig wc;
    wc.num_requests = 40;
    wc.num_offers = 25;
    Rng rng(seed);
    const auto s = trace::make_workload(wc, AuctionConfig{}, rng);
    expect_all_pairs_identical(s);
  }
}

TEST(ScoreMatrixTest, DisjointTypesScoreZero) {
  ResourceSchema schema;
  const ResourceId gpu = schema.intern("gpu");
  MarketSnapshot s;
  Request r = RequestBuilder(1);
  r.resources = ResourceVector({{ResourceSchema::kCpu, 2.0}});
  s.requests.push_back(r);
  Offer o = OfferBuilder(1);
  o.resources = ResourceVector({{gpu, 4.0}});
  s.offers.push_back(o);

  const BlockScale scale(s.requests, s.offers);
  const ScoreMatrix m(s, scale);
  EXPECT_EQ(m.score_sparse(0, 0), 0.0);
  EXPECT_EQ(m.score_sparse(0, 0), quality_of_match(s.requests[0], s.offers[0], scale));
}

TEST(ScoreMatrixTest, ZeroAmountDeclaredTypeMatchesSparse) {
  // A zero amount still declares the type (so it is in K_r ∩ K_o); the
  // ScoreMatrix must agree with the sparse walk on such entries.
  MarketSnapshot s;
  Request r = RequestBuilder(1);
  r.resources = ResourceVector({{ResourceSchema::kCpu, 0.0}, {ResourceSchema::kMemory, 4.0}});
  s.requests.push_back(r);
  Offer o = OfferBuilder(1);
  o.resources = ResourceVector({{ResourceSchema::kCpu, 8.0}, {ResourceSchema::kMemory, 16.0}});
  s.offers.push_back(o);

  const BlockScale scale(s.requests, s.offers);
  const ScoreMatrix m(s, scale);
  EXPECT_GT(m.score_sparse(0, 0), 0.0);
  EXPECT_EQ(m.score_sparse(0, 0), quality_of_match(s.requests[0], s.offers[0], scale));
}

TEST(ScoreMatrixTest, SignificanceWeightsCarryOver) {
  MarketSnapshot s;
  Request r = RequestBuilder(1);
  r.significance.set(ResourceSchema::kMemory, 0.25);
  s.requests.push_back(r);
  s.offers.push_back(OfferBuilder(1).build());
  s.offers.push_back(OfferBuilder(2).cpu(16.0).memory(64.0).disk(500.0).build());

  expect_all_pairs_identical(s);
}

TEST(ScoreMatrixTest, SparseIdGapsAreHandled) {
  // Intern a high-id type only some bidders declare: dense rows must pad
  // the gap with zeros, not misalign.
  ResourceSchema schema;
  for (int i = 0; i < 10; ++i) schema.intern("filler" + std::to_string(i));
  const ResourceId sgx = schema.intern("sgx");
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(1).resource(sgx, 1.0).build());
  s.requests.push_back(RequestBuilder(2).build());
  s.offers.push_back(OfferBuilder(1).resource(sgx, 1.0).build());
  s.offers.push_back(OfferBuilder(2).build());

  expect_all_pairs_identical(s);
}

TEST(ScoreMatrixTest, WidthCoversLargestObservedId) {
  MarketSnapshot s;
  s.requests.push_back(RequestBuilder(1).build());
  s.offers.push_back(OfferBuilder(1).build());
  const BlockScale scale(s.requests, s.offers);
  const ScoreMatrix m(s, scale);
  EXPECT_EQ(m.width(), scale.dimension());
  EXPECT_EQ(m.width(), std::size_t{ResourceSchema::kDisk} + 1);
}

// The best-offer query — a fresh CandidateIndex over its own ScoreMatrix —
// returns the full-sort oracle's set.
TEST(ScoreMatrixTest, BestOffersOverloadsAgree) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    trace::WorkloadConfig wc;
    wc.num_requests = 30;
    wc.num_offers = 20;
    Rng rng(seed);
    const auto s = trace::make_workload(wc, AuctionConfig{}, rng);
    const BlockScale scale(s.requests, s.offers);
    const AuctionConfig cfg;
    const CandidateIndex index(s);
    CandidateIndex::Scratch scratch;
    for (std::size_t r = 0; r < s.requests.size(); ++r) {
      const auto want = best_offers_reference(s.requests[r], s, scale, cfg);
      EXPECT_EQ(want, index.best_offers(r, cfg, scratch)) << "request " << r;
    }
  }
}

}  // namespace
}  // namespace decloud::auction
