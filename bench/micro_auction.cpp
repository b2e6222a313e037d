// Microbenchmarks of the auction pipeline (google-benchmark): QoM scoring,
// the matching stage, cluster formation, and the full mechanism at several
// market sizes.
#include <benchmark/benchmark.h>

#include "auction/candidate_index.hpp"
#include "auction/cluster.hpp"
#include "auction/mechanism.hpp"
#include "auction/qom.hpp"
#include "common/thread_pool.hpp"
#include "trace/workload.hpp"

namespace {

using namespace decloud;

auction::MarketSnapshot make_market(std::size_t requests, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.num_requests = requests;
  wc.num_offers = requests / 2;
  Rng rng(seed);
  return trace::make_workload(wc, auction::AuctionConfig{}, rng);
}

void BM_QualityOfMatch(benchmark::State& state) {
  const auto snapshot = make_market(64, 1);
  const auction::BlockScale scale(snapshot.requests, snapshot.offers);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = snapshot.requests[i % snapshot.requests.size()];
    const auto& o = snapshot.offers[i % snapshot.offers.size()];
    benchmark::DoNotOptimize(auction::quality_of_match(r, o, scale));
    ++i;
  }
}
BENCHMARK(BM_QualityOfMatch);

// The whole matching stage as DeCloudAuction::run executes it: the
// CandidateIndex build (scale, score matrix, cells) plus the best-offer
// fan-out for every request, at a given thread count (range(1)).
void BM_MatchingStage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto snapshot = make_market(n, 2);
  const auction::AuctionConfig cfg;
  ThreadPool pool(threads);
  ThreadPool* p = threads > 1 ? &pool : nullptr;
  std::vector<std::vector<std::size_t>> best(n);
  for (auto _ : state) {
    const auction::CandidateIndex index(snapshot);
    run_chunked(p, 0, n, [&](std::size_t r) {
      thread_local auction::CandidateIndex::Scratch scratch;
      best[r] = index.best_offers(r, cfg, scratch);
    });
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MatchingStage)->Args({256, 1})->Args({256, 2})->Args({256, 4});

void BM_ClusterFormation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto snapshot = make_market(n, 3);
  const auction::AuctionConfig cfg;
  // Precompute best sets; the benchmark isolates Algorithm 2 itself.
  const auction::CandidateIndex index(snapshot);
  auction::CandidateIndex::Scratch scratch;
  std::vector<std::vector<std::size_t>> best(n);
  for (std::size_t r = 0; r < n; ++r) {
    best[r] = index.best_offers(r, cfg, scratch);
  }
  for (auto _ : state) {
    auction::ClusterSet cs;
    for (std::size_t r = 0; r < n; ++r) {
      if (!best[r].empty()) cs.update(r, best[r]);
    }
    benchmark::DoNotOptimize(cs.size());
  }
}
BENCHMARK(BM_ClusterFormation)->Arg(64)->Arg(256);

void BM_FullMechanism(benchmark::State& state) {
  const auto snapshot = make_market(static_cast<std::size_t>(state.range(0)), 4);
  const auction::DeCloudAuction mechanism;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(snapshot, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullMechanism)->Arg(32)->Arg(128)->Arg(512);

// Full mechanism at an explicit thread count (range(1)); the outcome is
// byte-identical across rows — only the wall time moves.
void BM_FullMechanismThreads(benchmark::State& state) {
  const auto snapshot = make_market(static_cast<std::size_t>(state.range(0)), 4);
  auction::AuctionConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(1));
  const auction::DeCloudAuction mechanism(cfg);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(snapshot, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullMechanismThreads)->Args({512, 1})->Args({512, 2})->Args({512, 4});

void BM_BenchmarkMechanism(benchmark::State& state) {
  const auto snapshot = make_market(static_cast<std::size_t>(state.range(0)), 5);
  auction::AuctionConfig cfg;
  cfg.truthful = false;
  const auction::DeCloudAuction mechanism(cfg);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(snapshot, ++seed));
  }
}
BENCHMARK(BM_BenchmarkMechanism)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
