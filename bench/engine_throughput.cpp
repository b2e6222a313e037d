// Machine-readable throughput benchmark for the sharded engine.
//
// Emits one JSON document (schema decloud-engine-bench-v6) timing a full
// run of the trace drive loop — bid-by-bid submission, a micro-epoch close
// every requests/4 bids, the resubmission tail — at each (shard count,
// thread count) pair, reporting bids/sec so bench/trajectory/ can track
// cross-shard scaling the same way perf_smoke tracks the intra-round
// pipeline.
//
// Usage: engine_throughput [--rounds N] [--shards a,b,c] [--threads a,b,c]
//                          [--requests N] [--journal on|off] [--wal on|off]
//   --rounds    timing repetitions per entry; the MINIMUM time (max
//               bids/sec) is reported (default 3)
//   --shards    comma-separated shard counts (default "1,4,16")
//   --threads   comma-separated scheduler thread counts
//               (default "1,<hardware_concurrency>")
//   --requests  workload size; offers are requests/2 (default 2048)
//   --journal   "on" records every run into a live flight recorder
//               (journal_capacity 65536), "off" leaves the hooks at their
//               one-pointer-test cost (default "off"); the header records
//               which, so trajectory points stay comparable
//   --wal       "on" attaches a write-ahead log to every run's drive loop
//               — fsync on every append — "off" runs in-memory only
//               (default "off"); the header records which.
//               WAL files land in a scratch directory under the system
//               temp path
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "obs/clock.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"
#include "wal/durable/durable.hpp"

namespace {

using namespace decloud;

std::vector<std::size_t> parse_counts(const char* arg) {
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

engine::EngineConfig engine_config(std::size_t shards, std::size_t journal_capacity) {
  engine::EngineConfig config;
  config.router.num_shards = shards;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.queue_capacity = SIZE_MAX / 2;  // measure throughput, not admission
  config.market.consensus.difficulty_bits = 8;  // simulation-scale PoW
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;  // parallelism across shards
  config.journal_capacity = journal_capacity;
  return config;
}

struct Entry {
  std::size_t shards;
  std::size_t threads;
  std::size_t bids;
  std::size_t allocated;
  std::size_t epochs;
  double ms;
  double bids_per_sec;
};

}  // namespace

int main(int argc, char** argv) {
  int rounds = 3;
  std::size_t num_requests = 2048;
  bool journal = false;
  bool wal = false;
  std::vector<std::size_t> shard_counts = {1, 4, 16};
  std::vector<std::size_t> thread_counts = {1, ThreadPool::default_workers()};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = parse_counts(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = parse_counts(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      num_requests = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal = std::strcmp(argv[++i], "on") == 0;
    } else if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      wal = std::strcmp(argv[++i], "on") == 0;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rounds N] [--shards a,b,c] [--threads a,b,c] [--requests N] "
                   "[--journal on|off] [--wal on|off]\n",
                   argv[0]);
      return 2;
    }
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  engine::TraceDriverConfig driver;
  driver.workload.num_requests = num_requests;
  driver.workload.num_offers = num_requests / 2;
  driver.located_fraction = 0.9;
  driver.seed = 2;
  const std::size_t bids_per_epoch = num_requests / 4;  // 6 micro-epochs

  const std::size_t journal_capacity = journal ? std::size_t{65536} : std::size_t{0};
  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "decloud_engine_throughput_wal").string();
  const auto durable_opts = [&] {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    wal::DurableOptions opts;
    opts.wal_dir = wal_dir;
    opts.sync = true;  // the durable default: fsync every append
    opts.fingerprint = 0x9EFC;  // arbitrary: nothing recovers this WAL
    return opts;
  };
  std::vector<Entry> entries;
  obs::SteadyClock clock;  // the sanctioned wall-clock source (src/obs)
  for (const std::size_t shards : shard_counts) {
    for (const std::size_t threads : thread_counts) {
      double best_ms = 1e300;
      std::size_t allocated = 0;
      std::size_t epochs = 0;
      std::size_t bids = 0;
      for (int round = 0; round < rounds; ++round) {
        stream::StreamConfig stream_config;
        stream_config.engine = engine_config(shards, journal_capacity);
        stream_config.triggers.bids = bids_per_epoch;
        stream_config.threads = threads;
        stream::StreamingMarket market(std::move(stream_config));
        // Directory reset is setup, not WAL cost — keep it untimed.
        wal::DurableOptions opts;
        if (wal) opts = durable_opts();
        const std::uint64_t t0 = clock.now_ns();
        const stream::StreamDriveOutcome outcome =
            drive_trace_stream(market, driver, wal ? &opts : nullptr);
        const std::uint64_t t1 = clock.now_ns();
        best_ms = std::min(best_ms, static_cast<double>(t1 - t0) / 1e6);
        allocated = outcome.drive.report.total.requests_allocated;
        epochs = outcome.drive.report.epochs;
        bids = outcome.drive.bids_generated;
      }
      entries.push_back({shards, threads, bids, allocated, epochs, best_ms,
                         static_cast<double>(bids) / (best_ms / 1000.0)});
    }
  }

  std::filesystem::remove_all(wal_dir);

  std::printf("{\n");
  std::printf("  \"schema\": \"decloud-engine-bench-v6\",\n");
  std::printf("  \"hardware_concurrency\": %zu,\n", ThreadPool::default_workers());
  // Instrumented (DECLOUD_DSCHED=ON) numbers are not comparable to
  // production numbers; the field lets perf dashboards partition them.
  std::printf("  \"dsched\": \"%s\",\n", dsched::kEnabled ? "on" : "off");
  // Whether every timed run recorded into a live flight recorder.
  std::printf("  \"journal\": \"%s\",\n", journal ? "on" : "off");
  // Whether every timed run wrote a fsync'd WAL (the durable path).
  std::printf("  \"wal\": \"%s\",\n", wal ? "on" : "off");
  std::printf("  \"rounds\": %d,\n", rounds);
  std::printf("  \"requests\": %zu,\n", num_requests);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("    {\"bench\": \"engine_drive\", \"shards\": %zu, "
                "\"threads\": %zu, \"bids\": %zu, \"allocated\": %zu, \"epochs\": %zu, "
                "\"ms\": %.4f, \"bids_per_sec\": %.1f}%s\n",
                e.shards, e.threads, e.bids, e.allocated, e.epochs, e.ms, e.bids_per_sec,
                i + 1 == entries.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}
