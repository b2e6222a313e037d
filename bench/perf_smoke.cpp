// Machine-readable performance smoke test for the matching pipeline.
//
// Unlike the google-benchmark microbenches, this binary emits one JSON
// document so successive PRs can record a benchmark *trajectory* (see
// bench/trajectory/) and compare runs mechanically.  It times:
//
//   * matching_pruned  — CandidateIndex build (BlockScale, ScoreMatrix,
//     cells) + the best-offer queries at 1..N threads, the matching stage as
//     DeCloudAuction::run executes it;
//   * full_mechanism   — DeCloudAuction::run end to end at 1..N threads;
//   * engine_drive     — the sharded engine end to end (the trace drive
//     loop: bid-by-bid ingest, a micro-epoch close every 192 bids) at each
//     (shards, threads) pair, with bids/sec as the headline metric;
//   * mechanism_null_sink / mechanism_live_sink — full_mechanism with the
//     observability hooks off (null MetricsSink*, the default) vs. on, so
//     bench/trajectory/ tracks the instrumentation overhead against the
//     ≤2% live-sink budget of DESIGN.md §3e;
//   * engine_no_injector / engine_null_injector — a 1-shard engine drive
//     with no FaultInjector vs. an active plan whose rules never fire
//     (p=0), pinning the fault-hook overhead (DESIGN.md §3f, same ≤2%
//     budget);
//   * engine_null_journal / engine_live_journal — the same 1-shard drive
//     with no flight recorder (journal hooks pay one pointer test) vs. a
//     live journal recording every event (DESIGN.md §3j, same ≤2%
//     budget);
//   * engine_no_wal / engine_wal_nosync / engine_wal_fsync — the same
//     1-shard drive with no WAL vs. a write-ahead log without fsync vs.
//     with fsync on every append (DESIGN.md §3k).  The WAL is opt-in, not an
//     ambient hook — with no writer attached the engine pays one pointer
//     test, covered by the existing ≤2% budget — so neither WAL-on delta
//     is budgeted: the nosync delta is the encode+write() logging cost,
//     the fsync-minus-nosync delta is pure storage stall, and both are
//     reported so bench/trajectory/ tracks the price of durability.
//
// Usage: perf_smoke [--rounds N] [--threads a,b,c] [--shards a,b,c]
//                   [--requests N] [--offers N] [--matching-only]
//                   [--journal on|off]
//   --rounds   timing repetitions per entry; the MINIMUM is reported
//              (default 5)
//   --threads  comma-separated thread counts for the parallel entries
//              (default "1,<hardware_concurrency>")
//   --shards   comma-separated shard counts for the engine entries
//              (default "1,4"; pass 0 to skip the engine section)
//   --requests market size of the matching_* section (default 256) — the
//              100k trajectory capture is `--requests 100000 --offers 50000
//              --matching-only`
//   --offers   offers for the matching_* section (default requests / 2)
//   --matching-only  emit only the matching_* entries (skips the mechanism
//              and engine sections, whose sizes stay fixed for trajectory
//              comparability)
//   --journal  include the flight-recorder overhead pair (default "on";
//              "off" skips it — the header records which, so trajectory
//              points stay machine-readably comparable)
//   --wal      include the WAL overhead trio (default "on"; "off" skips
//              it — same header contract as --journal); WAL files land
//              in a scratch directory under the system temp path
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "auction/candidate_index.hpp"
#include "auction/mechanism.hpp"
#include "common/thread_pool.hpp"
#include "dsched/sync.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "obs/clock.hpp"
#include "obs/sink.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"
#include "trace/workload.hpp"
#include "wal/durable/durable.hpp"

namespace {

using namespace decloud;

auction::MarketSnapshot make_market(std::size_t requests, std::size_t offers,
                                    std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.num_requests = requests;
  wc.num_offers = offers == 0 ? requests / 2 : offers;
  Rng rng(seed);
  return trace::make_workload(wc, auction::AuctionConfig{}, rng);
}

/// One trace drive through the drive loop at `threads` scheduler workers,
/// closing a micro-epoch every 192 bids, optionally with a WAL attached.
/// Returns the bids generated.
std::size_t drive_bids(const engine::EngineConfig& config, std::size_t threads,
                       const engine::TraceDriverConfig& driver,
                       const wal::DurableOptions* durable = nullptr) {
  stream::StreamConfig stream_config;
  stream_config.engine = config;
  stream_config.triggers.bids = 192;
  stream_config.threads = threads;
  stream::StreamingMarket market(std::move(stream_config));
  return stream::drive_trace_stream(market, driver, durable).drive.bids_generated;
}

/// Minimum wall time of `rounds` invocations, in milliseconds.  Timing
/// goes through obs::SteadyClock — the repo's one sanctioned wall-clock
/// site (declint rule wallclock-outside-obs covers bench/ too).
template <typename Fn>
double time_min_ms(int rounds, const Fn& fn) {
  obs::SteadyClock clock;
  double best = 1e300;
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t t0 = clock.now_ns();
    fn();
    const std::uint64_t t1 = clock.now_ns();
    best = std::min(best, static_cast<double>(t1 - t0) / 1e6);
  }
  return best;
}

struct Entry {
  std::string bench;
  std::size_t requests;
  std::size_t offers;
  std::size_t threads;
  double ms;
  /// Engine entries only (shards > 0): shard count and bids/sec.
  std::size_t shards = 0;
  double bids_per_sec = 0.0;
};

void emit(const std::vector<Entry>& entries, int rounds,
          const std::vector<std::size_t>& thread_counts, bool journal, bool wal) {
  std::printf("{\n");
  std::printf("  \"schema\": \"decloud-perf-smoke-v7\",\n");
  std::printf("  \"hardware_concurrency\": %zu,\n", ThreadPool::default_workers());
  // Instrumented (DECLOUD_DSCHED=ON) numbers are not comparable to
  // production numbers; the field lets perf dashboards partition them.
  std::printf("  \"dsched\": \"%s\",\n", dsched::kEnabled ? "on" : "off");
  // Whether the flight-recorder overhead pair ran in this capture.
  std::printf("  \"journal\": \"%s\",\n", journal ? "on" : "off");
  // Whether the WAL overhead trio ran in this capture.
  std::printf("  \"wal\": \"%s\",\n", wal ? "on" : "off");
  // The sweep actually run, so a point captured on a small box is
  // machine-readably distinguishable from one that exercised real cores.
  std::printf("  \"thread_sweep\": [");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s%zu", i == 0 ? "" : ", ", thread_counts[i]);
  }
  std::printf("],\n");
  std::printf("  \"rounds\": %d,\n", rounds);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("    {\"bench\": \"%s\", \"requests\": %zu, \"offers\": %zu, "
                "\"threads\": %zu, \"ms_per_round\": %.4f",
                e.bench.c_str(), e.requests, e.offers, e.threads, e.ms);
    if (e.shards > 0) {
      std::printf(", \"shards\": %zu, \"bids_per_sec\": %.1f", e.shards, e.bids_per_sec);
    }
    std::printf("}%s\n", i + 1 == entries.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
}

std::vector<std::size_t> parse_threads(const char* arg) {
  std::vector<std::size_t> out;
  const std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(static_cast<std::size_t>(std::strtoul(tok.c_str(), nullptr, 10)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 5;
  std::vector<std::size_t> thread_counts = {1, ThreadPool::default_workers()};
  std::vector<std::size_t> shard_counts = {1, 4};
  std::size_t matching_requests = 256;
  std::size_t matching_offers = 0;  // 0 = requests / 2
  bool matching_only = false;
  bool journal = true;
  bool wal = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = parse_threads(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = parse_threads(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      matching_requests = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--offers") == 0 && i + 1 < argc) {
      matching_offers = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--matching-only") == 0) {
      matching_only = true;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal = std::strcmp(argv[++i], "off") != 0;
    } else if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      wal = std::strcmp(argv[++i], "off") != 0;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rounds N] [--threads a,b,c] [--shards a,b,c]\n"
                   "          [--requests N] [--offers N] [--matching-only]\n"
                   "          [--journal on|off] [--wal on|off]\n",
                   argv[0]);
      return 2;
    }
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  std::vector<Entry> entries;

  // --- matching stage (default: the BM_MatchingStage size, 256 requests;
  // --requests/--offers rescale it — the 100k capture in bench/trajectory/
  // uses --requests 100000 --offers 50000 --matching-only).
  {
    const auto s = make_market(matching_requests, matching_offers, 2);
    const auction::AuctionConfig cfg;

    for (const std::size_t t : thread_counts) {
      ThreadPool pool(t);
      ThreadPool* p = t > 1 ? &pool : nullptr;
      // Index build + queries, timed end to end so the entry charges the
      // index its construction cost.
      const double pruned_ms = time_min_ms(rounds, [&] {
        const auction::CandidateIndex index(s);
        run_chunked(p, 0, s.requests.size(), [&](std::size_t r) {
          thread_local auction::CandidateIndex::Scratch scratch;
          volatile auto sink = index.best_offers(r, cfg, scratch).size();
          (void)sink;
        });
      });
      entries.push_back({"matching_pruned", s.requests.size(), s.offers.size(), t, pruned_ms});
    }
  }

  if (matching_only) {
    emit(entries, rounds, thread_counts, journal, wal);
    return 0;
  }

  // --- full mechanism at the BM_FullMechanism size (512 requests).
  {
    const auto s = make_market(512, 0, 4);
    for (const std::size_t t : thread_counts) {
      auction::AuctionConfig cfg;
      cfg.threads = t;
      const auction::DeCloudAuction mechanism(cfg);
      std::uint64_t seed = 0;
      const double ms = time_min_ms(rounds, [&] {
        volatile auto sink = mechanism.run(s, ++seed).matches.size();
        (void)sink;
      });
      entries.push_back({"full_mechanism", s.requests.size(), s.offers.size(), t, ms});
    }
  }

  // --- observability overhead: the same single-threaded mechanism with
  // hooks off (null sink — one pointer test per hook) and on (live sink).
  // Compare the pair in bench/trajectory/: live must stay within ~2% of
  // null, and null within noise of full_mechanism@1.
  {
    const auto s = make_market(512, 0, 4);
    auction::AuctionConfig cfg;
    cfg.threads = 1;
    const auction::DeCloudAuction mechanism(cfg);
    std::uint64_t seed = 0;
    const double null_ms = time_min_ms(rounds, [&] {
      volatile auto matches = mechanism.run(s, ++seed, nullptr).matches.size();
      (void)matches;
    });
    entries.push_back({"mechanism_null_sink", s.requests.size(), s.offers.size(), 1, null_ms});

    obs::MetricsSink live("perf_smoke");
    seed = 0;
    const double live_ms = time_min_ms(rounds, [&] {
      volatile auto matches = mechanism.run(s, ++seed, &live).matches.size();
      (void)matches;
    });
    entries.push_back({"mechanism_live_sink", s.requests.size(), s.offers.size(), 1, live_ms});
  }

  // --- fault-hook overhead: the same 1-shard engine drive with no
  // injector (hooks pay one pointer test) vs. a "null" fault plan whose
  // rules never fire (p=0 — every hook pays the window match plus the
  // seeded coin).  Compare the pair in bench/trajectory/: the null plan
  // must stay within ~2% of no-injector, as chaos replays are meant to be
  // cheap enough to leave on in soak runs.
  {
    engine::TraceDriverConfig driver;
    driver.workload.num_requests = 512;
    driver.workload.num_offers = 256;
    driver.located_fraction = 0.9;
    driver.seed = 8;

    const auto drive_ms = [&](const char* plan) {
      engine::EngineConfig config;
      config.router.num_shards = 1;
      config.router.x1 = 100.0;
      config.router.y1 = 100.0;
      config.queue_capacity = SIZE_MAX / 2;
      config.market.consensus.difficulty_bits = 8;
      config.market.num_verifiers = 1;
      config.market.consensus.auction.threads = 1;
      if (plan != nullptr) config.fault_plan = fault::FaultPlan::parse(plan);
      return time_min_ms(rounds, [&] {
        volatile auto sink = drive_bids(config, 1, driver);
        (void)sink;
      });
    };

    entries.push_back({"engine_no_injector", driver.workload.num_requests,
                       driver.workload.num_offers, 1, drive_ms(nullptr)});
    entries.push_back({"engine_null_injector", driver.workload.num_requests,
                       driver.workload.num_offers, 1,
                       drive_ms("withhold_reveal:p=0;dishonest_vote:p=0;deny_agreement:p=0;"
                                "reject_ingest:p=0;corrupt_sealed_bid:p=0")});
  }

  // --- flight-recorder overhead: the same 1-shard engine drive with no
  // journal (every hook pays one null-pointer test) vs. a live journal
  // recording every event into its bounded rings.  Compare the pair in
  // bench/trajectory/: live must stay within ~2% of null (DESIGN.md §3j)
  // so soak runs can leave the recorder on.
  if (journal) {
    engine::TraceDriverConfig driver;
    driver.workload.num_requests = 512;
    driver.workload.num_offers = 256;
    driver.located_fraction = 0.9;
    driver.seed = 8;

    const auto drive_ms = [&](std::size_t journal_capacity) {
      engine::EngineConfig config;
      config.router.num_shards = 1;
      config.router.x1 = 100.0;
      config.router.y1 = 100.0;
      config.queue_capacity = SIZE_MAX / 2;
      config.market.consensus.difficulty_bits = 8;
      config.market.num_verifiers = 1;
      config.market.consensus.auction.threads = 1;
      config.journal_capacity = journal_capacity;
      return time_min_ms(rounds, [&] {
        volatile auto sink = drive_bids(config, 1, driver);
        (void)sink;
      });
    };

    entries.push_back({"engine_null_journal", driver.workload.num_requests,
                       driver.workload.num_offers, 1, drive_ms(0)});
    entries.push_back({"engine_live_journal", driver.workload.num_requests,
                       driver.workload.num_offers, 1, drive_ms(65536)});
  }

  // --- durable-market overhead (DESIGN.md §3k): the same 1-shard drive
  // with no WAL, with a WAL but no fsync (pure logging cost, the part the
  // ≤2% in-memory budget covers), and with fsync on every append (the
  // storage-bound price of power-loss durability — exempt from the budget
  // but reported).  All three share one config, so the deltas isolate the
  // WAL.
  if (wal) {
    engine::TraceDriverConfig driver;
    driver.workload.num_requests = 512;
    driver.workload.num_offers = 256;
    driver.located_fraction = 0.9;
    driver.seed = 8;

    const auto config = [] {
      engine::EngineConfig c;
      c.router.num_shards = 1;
      c.router.x1 = 100.0;
      c.router.y1 = 100.0;
      c.queue_capacity = SIZE_MAX / 2;
      c.market.consensus.difficulty_bits = 8;
      c.market.num_verifiers = 1;
      c.market.consensus.auction.threads = 1;
      return c;
    };

    const double no_wal_ms = time_min_ms(rounds, [&] {
      volatile auto sink = drive_bids(config(), 1, driver);
      (void)sink;
    });

    const std::string wal_dir =
        (std::filesystem::temp_directory_path() / "decloud_perf_smoke_wal").string();
    const auto durable_ms = [&](bool sync) {
      return time_min_ms(rounds, [&] {
        std::filesystem::remove_all(wal_dir);
        std::filesystem::create_directories(wal_dir);
        wal::DurableOptions opts;
        opts.wal_dir = wal_dir;
        opts.sync = sync;
        opts.fingerprint = 0x9EFC;  // arbitrary: nothing recovers this WAL
        volatile auto sink = drive_bids(config(), 1, driver, &opts);
        (void)sink;
      });
    };

    entries.push_back({"engine_no_wal", driver.workload.num_requests,
                       driver.workload.num_offers, 1, no_wal_ms});
    entries.push_back({"engine_wal_nosync", driver.workload.num_requests,
                       driver.workload.num_offers, 1, durable_ms(false)});
    entries.push_back({"engine_wal_fsync", driver.workload.num_requests,
                       driver.workload.num_offers, 1, durable_ms(true)});
    std::filesystem::remove_all(wal_dir);
  }

  // --- sharded engine end to end (cross-shard axis).
  for (const std::size_t shards : shard_counts) {
    if (shards == 0) continue;  // 0 = skip the engine section
    for (const std::size_t t : thread_counts) {
      engine::EngineConfig config;
      config.router.num_shards = shards;
      config.router.x1 = 100.0;
      config.router.y1 = 100.0;
      config.queue_capacity = SIZE_MAX / 2;  // throughput, not admission
      config.market.consensus.difficulty_bits = 8;
      config.market.num_verifiers = 1;
      config.market.consensus.auction.threads = 1;

      engine::TraceDriverConfig driver;
      driver.workload.num_requests = 512;
      driver.workload.num_offers = 256;
      driver.located_fraction = 0.9;
      driver.seed = 8;

      std::size_t bids = 0;
      const double ms = time_min_ms(rounds, [&] { bids = drive_bids(config, t, driver); });
      Entry entry{"engine_drive", driver.workload.num_requests, driver.workload.num_offers,
                  t, ms};
      entry.shards = shards;
      entry.bids_per_sec = static_cast<double>(bids) / (ms / 1000.0);
      entries.push_back(entry);
    }
  }

  emit(entries, rounds, thread_counts, journal, wal);
  return 0;
}
