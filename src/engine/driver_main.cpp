// engine_driver — CLI front-end for the trace-driven sharded engine.
//
// Streams a generated workload bid-by-bid through a StreamingMarket (the
// one trace drive loop, stream/stream_driver.hpp) with observability
// enabled and writes the merged exports:
//
//   engine_driver --shards 4 --threads 2 --requests 200
//                 --metrics-out metrics.json --trace-out trace.json
//
// In the default logical-clock mode both exports are byte-identical for
// any --threads value (the determinism contract CI checks by diffing the
// files across thread counts); --wallclock switches the trace to steady-
// clock timestamps for human profiling, sacrificing that property.
//
//   --shards N          shard count (default 4)
//   --threads N         scheduler threads; 0 = hardware (default 1)
//   --requests N        workload requests; offers default to N/2
//   --offers N          workload offers
//   --bids-per-epoch N  bid-count trigger, the only micro-epoch trigger:
//                       close a micro-epoch every N submissions (DESIGN.md
//                       §3h); 0 = off, so the whole trace clears in the
//                       one flush close
//   --seed N            workload + location seed (default 7)
//   --metrics-out PATH  merged metrics JSON ("-" = stdout)
//   --prom-out PATH     merged metrics, Prometheus text format
//   --trace-out PATH    Chrome trace_event JSON ("-" = stdout)
//   --wallclock         stamp spans with a steady clock (non-deterministic)
//   --fault-plan SPEC   deterministic fault schedule (src/fault grammar,
//                       e.g. "withhold_reveal:p=0.3;dishonest_vote:p=0.2")
//   --fault-seed N      seed of the fault coin flips (default 1)
//   --retry-attempts N  ingest retry budget for refused submissions
//                       (default 0 = rejections are final)
//   --journal-out PATH  record the market flight recorder (DESIGN.md §3j)
//                       and write its binary encoding ("-" = stdout); the
//                       bytes are identical for any --threads value
//                       (inspect with tools/journal_query).  Also merges
//                       the journal's economic telemetry sink into the
//                       metrics exports.
//   --journal-limit N   per-ring journal capacity in events (default
//                       65536); overflowing rings drop their OLDEST
//                       events and count the drops
//   --wal-dir DIR       durable mode (DESIGN.md §3k): append every input
//                       to a per-shard write-ahead log in DIR before
//                       applying it
//   --recover           recover from --wal-dir (replay the whole WAL into
//                       a fresh market), then resume the run to completion.
//                       The recovered run's summary/metrics/journal are
//                       byte-identical to an uninterrupted run's.
//   --crash-plan SPEC   crash chaos: a fault plan whose crash_at_site
//                       rules hard-kill the process (exit 86) at durable
//                       crash sites (fault/crash.hpp).  Driven by a
//                       SEPARATE injector from --fault-plan, so reference
//                       and recovery runs simply omit this flag.
//
// A fault plan does not break determinism: the same plan + seed yields
// byte-identical exports at any --threads value (the CI chaos job diffs
// them).
//
// The engine report summary always goes to stdout (unless "-" routed an
// export there), so existing report-diff tooling keeps working.  A write
// that fails, to a file or to stdout (a full disk, /dev/full), prints
// "engine_driver: cannot write PATH" and exits 1.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "auction/config.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "journal/journal.hpp"
#include "obs/clock.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"
#include "wal/durable/durable.hpp"

namespace {

using namespace decloud;

/// Writes `bytes`, plus a trailing newline when `newline`, to `path`, or
/// to stdout for "-".  False, with a diagnostic, when the file cannot be
/// opened or written in full; main() checks stdout once, when it flushes.
bool write_out(const char* path, std::string_view bytes, bool newline = true) {
  const bool to_stdout = std::strcmp(path, "-") == 0;
  std::FILE* f = to_stdout ? stdout : std::fopen(path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "engine_driver: cannot open %s for writing\n", path);
    return false;
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (newline) ok = std::fputc('\n', f) != EOF && ok;
  if (!to_stdout) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "engine_driver: cannot write %s\n", to_stdout ? "stdout" : path);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 4;
  std::size_t threads = 1;
  std::size_t requests = 200;
  std::size_t offers = 0;  // 0 = requests / 2
  std::size_t bids_per_epoch = 0;
  std::uint64_t seed = 7;
  const char* metrics_out = nullptr;
  const char* prom_out = nullptr;
  const char* trace_out = nullptr;
  bool wallclock = false;
  const char* fault_plan = nullptr;
  std::uint64_t fault_seed = 1;
  std::size_t retry_attempts = 0;
  const char* journal_out = nullptr;
  std::size_t journal_limit = 65536;
  const char* wal_dir = nullptr;
  bool recover = false;
  const char* crash_plan = nullptr;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "engine_driver: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      requests = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--offers") == 0) {
      offers = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--bids-per-epoch") == 0) {
      bids_per_epoch = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_out = next();
    } else if (std::strcmp(argv[i], "--prom-out") == 0) {
      prom_out = next();
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = next();
    } else if (std::strcmp(argv[i], "--wallclock") == 0) {
      wallclock = true;
    } else if (std::strcmp(argv[i], "--fault-plan") == 0) {
      fault_plan = next();
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      fault_seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--retry-attempts") == 0) {
      retry_attempts = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--journal-out") == 0) {
      journal_out = next();
    } else if (std::strcmp(argv[i], "--journal-limit") == 0) {
      journal_limit = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--wal-dir") == 0) {
      wal_dir = next();
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[i], "--crash-plan") == 0) {
      crash_plan = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards N] [--threads N] [--requests N] [--offers N]\n"
                   "          [--bids-per-epoch N] [--seed N] [--metrics-out PATH]\n"
                   "          [--prom-out PATH] [--trace-out PATH] [--wallclock]\n"
                   "          [--fault-plan SPEC] [--fault-seed N] [--retry-attempts N]\n"
                   "          [--journal-out PATH] [--journal-limit N]\n"
                   "          [--wal-dir DIR] [--recover]\n"
                   "          [--crash-plan SPEC]\n",
                   argv[0]);
      return 2;
    }
  }
  if (shards == 0) {
    std::fprintf(stderr, "engine_driver: --shards must be >= 1\n");
    return 2;
  }
  // Flag-combination validation: refuse contradictory durable-mode
  // configurations outright with a one-line diagnostic instead of running
  // a subtly meaningless market.
  if (recover && wal_dir == nullptr) {
    std::fprintf(stderr, "engine_driver: --recover needs --wal-dir\n");
    return 2;
  }
  if (crash_plan != nullptr && wal_dir == nullptr) {
    std::fprintf(stderr, "engine_driver: --crash-plan needs --wal-dir (crashing without a WAL "
                         "leaves nothing to recover)\n");
    return 2;
  }

  obs::SteadyClock steady;
  engine::EngineConfig config;
  config.router.num_shards = shards;
  config.router.x0 = 0.0;
  config.router.x1 = 100.0;
  config.router.y0 = 0.0;
  config.router.y1 = 100.0;
  config.market.consensus.difficulty_bits = 8;  // simulation-scale PoW
  config.market.num_verifiers = 1;
  config.market.consensus.auction.threads = 1;  // parallelism across shards
  // Byzantine tolerance is on for the driver: a dishonest-vote fault
  // costs one re-mine, not the whole round's bids.
  config.market.consensus.max_remine_attempts = 1;
  config.observability = true;
  config.clock = wallclock ? &steady : nullptr;
  config.retry.max_attempts = retry_attempts;
  config.fault_seed = fault_seed;
  if (journal_out != nullptr) {
    if (journal_limit == 0) {
      std::fprintf(stderr, "engine_driver: --journal-limit must be >= 1\n");
      return 2;
    }
    config.journal_capacity = journal_limit;
  }
  if (fault_plan != nullptr) {
    try {
      config.fault_plan = fault::FaultPlan::parse(fault_plan);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "engine_driver: bad --fault-plan: %s\n", e.what());
      return 2;
    }
  }
  fault::FaultPlan crash_fault_plan;
  if (crash_plan != nullptr) {
    try {
      crash_fault_plan = fault::FaultPlan::parse(crash_plan);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "engine_driver: bad --crash-plan: %s\n", e.what());
      return 2;
    }
  }
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = requests;
  driver.workload.num_offers = offers == 0 ? requests / 2 : offers;
  driver.located_fraction = 0.9;
  driver.seed = seed;

  // The crash injector is SEPARATE from the engine's --fault-plan one
  // (fault/crash.hpp); it shares --fault-seed, which is safe because the
  // coin folds in the fault kind.
  const fault::FaultInjector crash_injector(crash_fault_plan, fault_seed);
  wal::DurableOptions durable;
  if (wal_dir != nullptr) {
    durable.wal_dir = wal_dir;
    durable.recover = recover;
    durable.crash = crash_plan != nullptr ? &crash_injector : nullptr;
    // Everything that shapes results goes into the fingerprint; thread
    // count (legitimately different on recovery), output paths and the
    // crash plan (only the crashed run carries one) stay out.
    const std::string canonical =
        "shards=" + std::to_string(shards) + ";requests=" + std::to_string(requests) +
        ";offers=" + std::to_string(driver.workload.num_offers) +
        ";bids_per_epoch=" + std::to_string(bids_per_epoch) + ";seed=" + std::to_string(seed) +
        ";retry=" + std::to_string(retry_attempts) +
        ";fault_seed=" + std::to_string(fault_seed) +
        ";fault_plan=" + config.fault_plan.canonical() +
        ";journal=" + std::to_string(config.journal_capacity);
    durable.fingerprint = wal::config_fingerprint(canonical);
  }

  stream::StreamConfig stream_config;
  stream_config.engine = config;
  stream_config.triggers.bids = bids_per_epoch;
  stream_config.threads = threads;
  stream::StreamingMarket market(std::move(stream_config));
  stream::StreamDriveOutcome outcome;
  try {
    outcome = drive_trace_stream(market, driver, wal_dir != nullptr ? &durable : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_driver: %s\n", e.what());
    return 1;
  }

  const journal::Journal* journal = market.market_engine().journal();
  if (journal != nullptr) {
    // The telemetry sink joins the extra-sink merge order AFTER the
    // stream's sink, before the shard sinks.
    const obs::MetricsSink telemetry = journal::telemetry_sink(*journal);
    const obs::MetricsSink* extras[] = {market.scheduler().sink(), market.sink(), &telemetry};
    engine::MarketEngine& eng = market.market_engine();
    if (metrics_out != nullptr && !write_out(metrics_out, eng.metrics_json(extras))) return 1;
    if (prom_out != nullptr && !write_out(prom_out, eng.metrics_prometheus(extras))) return 1;
    // Raw bytes, no trailing newline: journal files are byte-compared
    // with cmp(1), so the file must be exactly Journal::encode().
    const std::vector<std::uint8_t> bytes = journal->encode();
    const std::string_view raw(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    if (!write_out(journal_out, raw, /*newline=*/false)) return 1;
  } else {
    if (metrics_out != nullptr && !write_out(metrics_out, market.metrics_json())) return 1;
    if (prom_out != nullptr && !write_out(prom_out, market.metrics_prometheus())) return 1;
  }
  if (trace_out != nullptr && !write_out(trace_out, market.trace_json())) return 1;

  if (!write_out("-", outcome.drive.report.summary_json())) return 1;
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "engine_driver: cannot write stdout\n");
    return 1;
  }
  return 0;
}
