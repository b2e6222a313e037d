// round_dump — runs one DeCloudAuction round over a generated workload and
// prints the canonical RoundResult JSON (round_result_json, %.17g).
//
// The output is a byte-exact fingerprint of the allocation: two invocations
// agree byte-for-byte iff their RoundResults are bit-identical.  CI uses it
// to enforce the threading contract — the allocation must not depend on
// the ranking fan-out's thread count:
//
//   round_dump --requests 2000 --offers 1000 --threads 1 > a.json
//   round_dump --requests 2000 --offers 1000 --threads 4 > b.json
//   cmp a.json b.json
//
//   --requests N      workload requests (default 512)
//   --offers N        workload offers (default requests / 2)
//   --seed N          workload seed (default 7)
//   --round-seed N    verifiable-randomization seed (default 1)
//   --threads N       ranking fan-out threads; 0 = hardware (default 1)
//
// A failed write to stdout prints "round_dump: cannot write stdout" and
// exits 1, so a cmp never compares a truncated file.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "auction/allocation.hpp"
#include "auction/mechanism.hpp"
#include "trace/workload.hpp"

namespace {

using namespace decloud;

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 512;
  std::size_t offers = 0;  // 0 = requests / 2
  std::uint64_t seed = 7;
  std::uint64_t round_seed = 1;
  std::size_t threads = 1;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "round_dump: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--requests") == 0) {
      requests = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--offers") == 0) {
      offers = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--round-seed") == 0) {
      round_seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::strtoul(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--requests N] [--offers N] [--seed N] [--round-seed N]\n"
                   "          [--threads N]\n",
                   argv[0]);
      return 2;
    }
  }

  trace::WorkloadConfig wc;
  wc.num_requests = requests;
  wc.num_offers = offers == 0 ? requests / 2 : offers;
  Rng rng(seed);
  const auction::MarketSnapshot snapshot = trace::make_workload(wc, auction::AuctionConfig{}, rng);

  auction::AuctionConfig cfg;
  cfg.threads = threads;
  const auction::RoundResult result = auction::DeCloudAuction(cfg).run(snapshot, round_seed);

  const std::string json = auction::round_result_json(result);
  if (std::fwrite(json.data(), 1, json.size(), stdout) != json.size() ||
      std::fputc('\n', stdout) == EOF || std::fflush(stdout) != 0) {
    std::fprintf(stderr, "round_dump: cannot write stdout\n");
    return 1;
  }
  return 0;
}
