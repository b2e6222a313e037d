// Microbenchmarks of the ledger substrate: hashing, sealing, signatures,
// PoW and a complete protocol round.
#include <benchmark/benchmark.h>

#include "crypto/chacha20.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "ledger/codec.hpp"
#include "ledger/protocol.hpp"
#include "trace/workload.hpp"

namespace {

using namespace decloud;

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash({data.data(), data.size()}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ChaCha20(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5a);
  crypto::SymmetricKey key{};
  key[0] = 1;
  crypto::Nonce nonce{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::chacha20_xor(key, nonce, {data.data(), data.size()}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(1024)->Arg(65536);

void BM_SignAndVerify(benchmark::State& state) {
  Rng rng(1);
  const crypto::KeyPair kp = crypto::generate_keypair(rng);
  const std::vector<std::uint8_t> msg(256, 0x17);
  for (auto _ : state) {
    const auto sig = crypto::sign(kp.priv, {msg.data(), msg.size()});
    benchmark::DoNotOptimize(crypto::verify(kp.pub, {msg.data(), msg.size()}, sig));
  }
}
BENCHMARK(BM_SignAndVerify);

void BM_PowSolve(benchmark::State& state) {
  const std::vector<std::uint8_t> header = {'h', 'd', 'r'};
  const auto bits = static_cast<unsigned>(state.range(0));
  std::uint64_t start = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::solve_pow({header.data(), header.size()}, bits, start));
    start += 1;  // vary the search to avoid a cached first solution
  }
}
BENCHMARK(BM_PowSolve)->Arg(8)->Arg(12)->Arg(16);

void BM_BidSealAndCodec(benchmark::State& state) {
  Rng rng(2);
  ledger::Participant wallet(rng);
  trace::WorkloadConfig wc;
  wc.num_requests = 8;
  wc.num_offers = 4;
  const auto snapshot = trace::make_workload(wc, auction::AuctionConfig{}, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wallet.submit_request(snapshot.requests[i % snapshot.requests.size()], rng));
    ++i;
  }
}
BENCHMARK(BM_BidSealAndCodec);

void BM_FullProtocolRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ledger::ConsensusParams params{.difficulty_bits = 8};
    ledger::LedgerProtocol protocol(params);
    Rng rng(3);
    ledger::Participant wallet(rng);
    trace::WorkloadConfig wc;
    wc.num_requests = n;
    wc.num_offers = n / 2;
    const auto snapshot = trace::make_workload(wc, params.auction, rng);
    for (const auto& r : snapshot.requests) {
      protocol.mempool().submit(wallet.submit_request(r, rng));
    }
    for (const auto& o : snapshot.offers) {
      protocol.mempool().submit(wallet.submit_offer(o, rng));
    }
    state.ResumeTiming();

    benchmark::DoNotOptimize(protocol.run_round({&wallet}, /*verifiers=*/2, 0));
  }
}
BENCHMARK(BM_FullProtocolRound)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
