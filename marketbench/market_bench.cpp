// Market benchmark: bid throughput and bid-to-clearing latency of the DeCloud
// market over four workloads, with a traced per-layer table.
//
// Usage: market_bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//                     [--wal-dir DIR]
//
//   single_region    1 shard, StreamingMarket, micro-epoch close every 1024 bids
//   regional_fanout  16 shards, epochs driven here (run_shard_epoch fanned out
//                    on the thread pool) every 2048 bids, flight recorder on
//   durable_stream   4 shards, StreamingMarket writing every input to a WAL
//   auction_round    DeCloudAuction::run alone, repeated with fresh block seeds
//
// Inputs come from the seed and are generated before any timing starts.  A
// run repeats whole passes (fresh engine, same inputs) until --seconds have
// elapsed and reports medians.  With --trace 0 every pass is untraced and
// one extra traced pass feeds the correctness gate; with --trace 1 untraced
// and traced passes alternate, the traced ones turn on the engine's span
// and counter export with a steady clock, and the per-layer table is
// printed.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "auction/mechanism.hpp"
#include "auction/verify.hpp"
#include "common/audit.hpp"
#include "common/thread_pool.hpp"
#include "engine/driver.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "ledger/block.hpp"
#include "ledger/participant.hpp"
#include "ledger/sealed_bid.hpp"
#include "obs/clock.hpp"
#include "obs/sink.hpp"
#include "stats.hpp"
#include "stream/streaming_market.hpp"
#include "trace/workload.hpp"
#include "wal/wal.hpp"

namespace {

using namespace decloud;
using marketbench::Close;
using marketbench::EpochRounds;

enum class Kind { kStream, kFanout, kAuction };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t shards;
  std::size_t requests;  ///< offers are half as many
  std::size_t close_every;
  bool wal;
  bool index_cache;
  std::size_t journal_capacity;
  std::size_t input_sets;  ///< input sets per run, cycled over the passes
};

constexpr Workload kWorkloads[] = {
    {"single_region", Kind::kStream, 1, 4096, 1024, false, true, 0, 4},
    {"regional_fanout", Kind::kFanout, 16, 8192, 2048, false, true, 65536, 4},
    {"durable_stream", Kind::kStream, 4, 4096, 1024, true, false, 0, 4},
    // Round time and welfare depend most on the snapshot here: more sets.
    {"auction_round", Kind::kAuction, 0, 8192, 0, false, false, 0, 8},
};

constexpr std::size_t kDrainEpochs = 32;      // the StreamConfig default
constexpr Seconds kEpochInterval = 600;       // the StreamConfig default
constexpr std::uint64_t kWalFingerprint = 0x4D42;  // nothing recovers this WAL
constexpr std::size_t kBlockSeeds = 4;        // auction_round block seeds per input set
constexpr std::size_t kCalibrationBids = 1024;
constexpr double kTrim = 0.1;  // share of passes trimmed from each end of a mean

obs::SteadyClock g_clock;  // stateless; safe to read from any thread

std::uint64_t now_ns() { return g_clock.now_ns(); }
double ms_between(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; }

/// Scheduler pool size: with the producer thread, which runs chunks too, at
/// most nproc threads are busy.
std::size_t pool_workers() { return std::max<std::size_t>(1, ThreadPool::default_workers() - 1); }

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string wal_dir = "market_bench_wal";
};

struct Inputs {
  auction::MarketSnapshot snapshot;
  std::vector<std::size_t> order;  ///< < requests.size(): request, else offer
  std::uint64_t seed = 0;
  double generation_s = 0.0;
};

/// One row of the per-layer table: self time and the work it covered.
struct Row {
  std::string layer;
  double self_ms = 0.0;
  double units = 0.0;
  std::string unit;
};

/// One pass over the workload's inputs.
struct Pass {
  bool traced = false;
  std::size_t set = 0;  ///< which input set it ran
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t bids = 0;
  std::size_t failed = 0;
  std::vector<double> epoch_ms;
  std::vector<double> clear_ms;
  double welfare = 0.0;
  double allocation_rate = 0.0;
  std::string summary;  ///< EngineReport::summary_json (engine workloads)
  std::vector<std::string> errors;
  // Traced passes only.
  std::map<std::string, double> layer;
  std::vector<Row> rows;
  double epoch_wall_ms = 0.0;
};

engine::EngineConfig engine_config(const Workload& w, bool traced) {
  engine::EngineConfig c;
  c.router.num_shards = w.shards;
  c.router.x0 = 0.0;
  c.router.x1 = 100.0;
  c.router.y0 = 0.0;
  c.router.y1 = 100.0;
  c.market.consensus.difficulty_bits = 8;
  c.market.consensus.auction.threads = 1;  // parallelism lives across shards
  c.market.reuse_candidate_index = w.index_cache;
  c.journal_capacity = w.journal_capacity;
  c.observability = traced;
  c.clock = traced ? &g_clock : nullptr;
  return c;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  const std::uint64_t t0 = now_ns();
  Inputs in;
  if (w.kind == Kind::kAuction) {
    trace::WorkloadConfig wc;
    wc.num_requests = w.requests;
    wc.num_offers = w.requests / 2;
    Rng rng(seed);
    in.snapshot = trace::make_workload(wc, auction::AuctionConfig{}, rng);
    const std::size_t n_req = in.snapshot.requests.size();
    const std::size_t n_off = in.snapshot.offers.size();
    for (std::size_t i = 0; i < std::max(n_req, n_off); ++i) {
      if (i < n_req) in.order.push_back(i);
      if (i < n_off) in.order.push_back(n_req + i);
    }
  } else {
    engine::TraceDriverConfig d;
    d.workload.num_requests = w.requests;
    d.workload.num_offers = w.requests / 2;
    d.located_fraction = 0.9;
    d.seed = seed;
    engine::TraceStream stream = engine::make_trace_stream(d, engine_config(w, false));
    in.snapshot = std::move(stream.snapshot);
    in.order = std::move(stream.order);
  }
  in.seed = seed;
  in.generation_s = static_cast<double>(now_ns() - t0) / 1e9;
  return in;
}

// ---------------------------------------------------------------------------
// Engine passes.

/// Spans of one shard sink, summed by layer.
struct SpanTotals {
  std::map<std::string, double> ms;            ///< by span name
  std::map<std::string, std::uint64_t> work;   ///< by span name
  double top_level_ms = 0.0;                   ///< depth-0 spans only
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top_level;  ///< [begin, end)
};

void add_spans(SpanTotals& t, const obs::MetricsSink& sink) {
  for (const obs::SpanRecord& s : sink.tracer().spans()) {
    t.ms[s.name] += static_cast<double>(s.dur_ns) / 1e6;
    t.work[s.name] += s.work;
    if (s.depth == 0) {
      t.top_level_ms += static_cast<double>(s.dur_ns) / 1e6;
      t.top_level.emplace_back(s.ts_ns, s.ts_ns + s.dur_ns);
    }
  }
}

/// Shard rounds reconstructed from a shard's own spans, for workloads whose
/// epochs run inside the StreamingMarket: each run_shard_epoch opens with an
/// "epoch_drain" span, and the round lasts until its last span ends.  The
/// book-keeping after the last span is not covered, so this is a lower bound.
struct SpanRound {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool ran = false;  ///< the shard mined a block (not an idle tick)
};

std::vector<SpanRound> rounds_from_spans(const obs::MetricsSink& sink) {
  std::vector<SpanRound> rounds;
  for (const obs::SpanRecord& s : sink.tracer().spans()) {
    if (s.depth == 0 && s.name == "epoch_drain") rounds.push_back({s.ts_ns, s.ts_ns, false});
    if (rounds.empty()) continue;
    rounds.back().end = std::max(rounds.back().end, s.ts_ns + s.dur_ns);
    if (s.name == "pow") rounds.back().ran = true;
  }
  return rounds;
}

/// A counter from a metrics_json() export (the merged registry of every
/// sink, counters summed across shards); 0 when absent.
std::uint64_t counter_value(const std::string& metrics_json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = metrics_json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(metrics_json.c_str() + at + key.size(), nullptr, 10);
}

/// The traced part shared by every engine workload: per-layer metrics and
/// table rows from the shard sinks plus the benchmark's own timings.
void fill_engine_layers(Pass& p, const engine::MarketEngine& eng, const std::string& metrics_json,
                        const std::vector<std::pair<std::uint64_t, std::uint64_t>>& epochs,
                        const std::vector<EpochRounds>& shard_rounds,
                        const std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>&
                            round_intervals,
                        const std::vector<double>& ran_round_ms, std::size_t workers,
                        const std::vector<double>& submit_us) {
  SpanTotals t;
  for (std::size_t s = 0; s < eng.num_shards(); ++s) add_spans(t, *eng.shard_sink(s));
  const double pow_attempts = static_cast<double>(counter_value(metrics_json, "ledger.pow_attempts"));
  const double bids_sealed = static_cast<double>(counter_value(metrics_json, "ledger.bids_sealed"));
  const std::uint64_t carried = counter_value(metrics_json, "auction.index_carried");
  const std::uint64_t inserted = counter_value(metrics_json, "auction.index_inserted");
  double epoch_wall_ms = 0.0;
  double fanout_wait_ms = 0.0;
  double unattributed_ms = 0.0;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const auto [lo, hi] = epochs[e];
    epoch_wall_ms += ms_between(lo, hi);
    fanout_wait_ms += static_cast<double>((hi - lo) -
                                          marketbench::covered_ns(round_intervals[e], lo, hi)) /
                      1e6;
    unattributed_ms +=
        static_cast<double>((hi - lo) - marketbench::covered_ns(t.top_level, lo, hi)) / 1e6;
  }
  double round_total_ms = 0.0;
  for (const EpochRounds& e : shard_rounds) {
    for (const double ms : e.shard_ms) round_total_ms += ms;
  }
  const auto ms = [&](const char* name) { return t.ms.count(name) ? t.ms.at(name) : 0.0; };
  const auto work = [&](const char* name) {
    return static_cast<double>(t.work.count(name) ? t.work.at(name) : 0);
  };
  const double auction_ms =
      ms("score") + ms("cluster") + ms("miniauction") + ms("trade_reduction");
  const double allocation_self_ms = ms("allocation") - auction_ms;
  const double ledger_unattributed_ms = std::max(0.0, round_total_ms - t.top_level_ms);
  double submit_ms = 0.0;
  for (const double us : submit_us) submit_ms += us / 1e3;

  auto& m = p.layer;
  m["stream.submit_us.p50"] = marketbench::median(submit_us);
  m["stream.closes"] = static_cast<double>(epochs.size());
  m["engine.shard_round_ms.p50"] = marketbench::median(ran_round_ms);
  m["engine.shard_round_ms.max"] =
      ran_round_ms.empty() ? 0.0 : *std::max_element(ran_round_ms.begin(), ran_round_ms.end());
  m["engine.imbalance"] = marketbench::imbalance(shard_rounds);
  m["engine.fanout_efficiency"] = marketbench::fanout_efficiency(shard_rounds, workers);
  m["ledger.pow_ms"] = ms("pow");
  m["ledger.pow_attempts"] = pow_attempts;
  m["ledger.key_reveal_ms"] = ms("key_reveal");
  m["ledger.allocation_ms"] = allocation_self_ms;
  m["ledger.verify_ms"] = ms("verify");
  m["ledger.append_ms"] = ms("append");
  m["ledger.unattributed_ms"] = ledger_unattributed_ms;
  m["ledger.seals_per_bid"] =
      p.bids == 0 ? 0.0 : bids_sealed / static_cast<double>(p.bids);
  m["auction.score_ms"] = ms("score");
  m["auction.pairs_scored"] = work("score");
  m["auction.cluster_ms"] = ms("cluster");
  m["auction.miniauction_ms"] = ms("miniauction");
  m["auction.trade_reduction_ms"] = ms("trade_reduction");
  m["auction.index_reuse_ratio"] =
      carried + inserted == 0
          ? 0.0
          : static_cast<double>(carried) / static_cast<double>(carried + inserted);
  m["unattributed_ms"] = unattributed_ms;

  p.epoch_wall_ms = epoch_wall_ms;
  p.rows = {
      {"stream.submit (outside epochs)", submit_ms, static_cast<double>(submit_us.size()), "bids"},
      {"engine.fanout_wait", fanout_wait_ms, static_cast<double>(epochs.size()), "epochs"},
      {"engine.epoch_drain", ms("epoch_drain"), work("epoch_drain"), "bids"},
      {"ledger.pow", ms("pow"), work("pow"), "attempts"},
      {"ledger.key_reveal", ms("key_reveal"), work("key_reveal"), "keys"},
      {"ledger.allocation (self)", allocation_self_ms, bids_sealed,
       "sealed"},
      {"ledger.verify", ms("verify"), work("verify"), "verifiers"},
      {"ledger.append", ms("append"), work("append"), "agreements"},
      {"ledger.unattributed (in round)", ledger_unattributed_ms,
       bids_sealed, "sealed"},
      {"auction.score", ms("score"), work("score"), "pairs"},
      {"auction.cluster", ms("cluster"), work("cluster"), "clusters"},
      {"auction.miniauction", ms("miniauction"), work("miniauction"), "auctions"},
      {"auction.trade_reduction", ms("trade_reduction"), work("trade_reduction"), "auctions"},
      {"unattributed", unattributed_ms, static_cast<double>(epochs.size()), "epochs"},
  };
}

/// Book-keeping shared by both engine drive loops.
struct Recorder {
  std::vector<std::uint64_t> submit_start;
  std::vector<Close> closes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> epochs;
  std::vector<double> submit_us;  ///< non-closing submits

  void submit(std::uint64_t t0, std::uint64_t t1, bool closed) {
    submit_start.push_back(t0);
    if (closed) {
      close(t0, t1);
    } else {
      submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  void close(std::uint64_t t0, std::uint64_t t1) {
    closes.push_back({submit_start.size(), t1});
    epochs.emplace_back(t0, t1);
  }
};

void finish_engine_pass(Pass& p, const Recorder& r, const engine::MarketEngine& eng,
                        engine::EngineReport report) {
  p.wall_s = static_cast<double>(r.epochs.back().second - r.submit_start.front()) / 1e9;
  for (const auto& [t0, t1] : r.epochs) p.epoch_ms.push_back(ms_between(t0, t1));
  try {
    p.clear_ms = marketbench::clear_times_ms(r.submit_start, r.closes);
  } catch (const std::invalid_argument& e) {
    p.errors.push_back(std::string("clear-time attribution: ") + e.what());
  }
  try {
    engine::audit_report(report);
  } catch (const std::exception& e) {
    p.errors.push_back(std::string("engine::audit_report: ") + e.what());
  }
  p.failed += report.bids_retry_dropped;
  for (std::size_t s = 0; s < eng.num_shards(); ++s) {
    const ledger::MarketOrchestrator& market = eng.shard_market(s);
    if (market.stats().rounds != market.protocol().chain().height()) {
      p.errors.push_back("shard " + std::to_string(s) + " had a block rejected");
    }
  }
  p.welfare = report.total.total_welfare;
  p.allocation_rate = report.total.allocation_rate();
  p.summary = report.summary_json();
}

Pass stream_pass(const Workload& w, const Inputs& in, bool traced, const Options& opt) {
  Pass p;
  p.traced = traced;
  if (w.wal) std::filesystem::remove_all(opt.wal_dir);  // the previous pass's log

  const std::uint64_t s0 = now_ns();
  stream::StreamConfig sc;
  sc.engine = engine_config(w, traced);
  sc.triggers.bids = w.close_every;
  sc.threads = pool_workers();
  sc.epoch_interval = kEpochInterval;
  sc.drain_epochs = 1;  // drain() is called once per tick, so each tick is timed
  stream::StreamingMarket market(std::move(sc));
  std::unique_ptr<wal::WalWriter> writer;
  if (w.wal) {
    std::filesystem::create_directories(opt.wal_dir);
    // No fsync: on a shared virtual disk fsync latency swings by several
    // times from minute to minute, which no run length steadies.  Encoding,
    // framing and the write per submit are still measured.
    writer = wal::WalWriter::create({opt.wal_dir, w.shards, kWalFingerprint, false});
    market.market_engine().set_wal_writer(writer.get());
    market.set_wal_writer(writer.get());
  }
  p.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  const std::size_t n_req = in.snapshot.requests.size();
  Recorder r;
  r.submit_start.reserve(in.order.size());
  for (const std::size_t i : in.order) {
    const std::uint64_t t0 = now_ns();
    const stream::StreamAdmission a = i < n_req ? market.submit(in.snapshot.requests[i])
                                                : market.submit(in.snapshot.offers[i - n_req]);
    const std::uint64_t t1 = now_ns();
    r.submit(t0, t1, a.closed_micro_epoch);
    if (!a.engine.admitted()) ++p.failed;
  }
  {
    const std::uint64_t t0 = now_ns();
    if (market.flush()) r.close(t0, now_ns());
  }
  for (std::size_t k = 0; k < kDrainEpochs; ++k) {
    const std::uint64_t t0 = now_ns();
    if (market.drain() == 0) break;
    r.close(t0, now_ns());
  }
  p.bids = in.order.size();
  const engine::MarketEngine& eng = market.market_engine();
  finish_engine_pass(p, r, eng, market.report());

  if (writer != nullptr) {
    market.market_engine().set_wal_writer(nullptr);
    market.set_wal_writer(nullptr);
    writer.reset();  // closes the segments
    const wal::WalContents log = wal::load_wal(opt.wal_dir, w.shards, kWalFingerprint);
    // One record per bid plus the flush.
    if (log.inputs.size() != p.bids + 1) {
      p.errors.push_back("WAL holds " + std::to_string(log.inputs.size()) +
                         " input records for " + std::to_string(p.bids) + " bids");
    }
    std::uint64_t bytes = 0;
    for (const std::uint64_t b : log.valid_bytes) bytes += b;
    p.layer["wal.bytes_per_bid"] = static_cast<double>(bytes) / static_cast<double>(p.bids);
    p.layer["wal.records_per_bid"] = static_cast<double>(log.inputs.size() + log.blocks.size()) /
                                     static_cast<double>(p.bids);
  }

  if (traced) {
    std::vector<EpochRounds> shard_rounds(r.epochs.size());
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> intervals(r.epochs.size());
    std::vector<double> ran_ms;
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
      shard_rounds[e].wall_ms = ms_between(r.epochs[e].first, r.epochs[e].second);
    }
    for (std::size_t s = 0; s < eng.num_shards(); ++s) {
      const std::vector<SpanRound> rounds = rounds_from_spans(*eng.shard_sink(s));
      if (rounds.size() != r.epochs.size()) {
        p.errors.push_back("shard " + std::to_string(s) + " traced " +
                           std::to_string(rounds.size()) + " rounds for " +
                           std::to_string(r.epochs.size()) + " epochs");
        return p;
      }
      for (std::size_t e = 0; e < rounds.size(); ++e) {
        const double ms = ms_between(rounds[e].begin, rounds[e].end);
        shard_rounds[e].shard_ms.push_back(ms);
        intervals[e].emplace_back(rounds[e].begin, rounds[e].end);
        if (rounds[e].ran) ran_ms.push_back(ms);
      }
    }
    // Threads running shard rounds: the scheduler's pool plus the producer.
    const std::size_t threads = market.scheduler().threads();
    const std::size_t workers = threads > 1 ? threads + 1 : 1;
    fill_engine_layers(p, eng, market.metrics_json(), r.epochs, shard_rounds, intervals, ran_ms,
                       workers, r.submit_us);
  }
  return p;
}

Pass fanout_pass(const Workload& w, const Inputs& in, bool traced) {
  Pass p;
  p.traced = traced;

  const std::uint64_t s0 = now_ns();
  engine::MarketEngine eng(engine_config(w, traced));
  std::optional<ThreadPool> pool;
  if (pool_workers() > 1 && eng.num_shards() > 1) pool.emplace(pool_workers());
  p.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  const std::size_t shards = eng.num_shards();
  Recorder r;
  r.submit_start.reserve(in.order.size());
  std::vector<EpochRounds> shard_rounds;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> intervals;
  std::vector<double> ran_ms;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> round(shards);
  std::vector<std::size_t> rounds_before(shards);

  // One epoch: every shard drains its queue and runs its block round, fanned
  // out exactly like EpochScheduler::tick, with each shard round timed.
  const auto run_epoch = [&] {
    const Time now = static_cast<Time>(r.epochs.size()) * kEpochInterval;
    for (std::size_t s = 0; s < shards; ++s) rounds_before[s] = eng.shard_market(s).stats().rounds;
    const std::uint64_t t0 = now_ns();
    run_chunked(pool ? &*pool : nullptr, 0, shards, [&](std::size_t s) {
      const std::uint64_t b = now_ns();
      eng.run_shard_epoch(s, now);
      round[s] = {b, now_ns()};
    });
    r.close(t0, now_ns());
    EpochRounds e;
    e.wall_ms = ms_between(t0, r.epochs.back().second);
    for (std::size_t s = 0; s < shards; ++s) {
      const double ms = ms_between(round[s].first, round[s].second);
      e.shard_ms.push_back(ms);
      if (eng.shard_market(s).stats().rounds > rounds_before[s]) ran_ms.push_back(ms);
    }
    shard_rounds.push_back(std::move(e));
    intervals.emplace_back(round.begin(), round.end());
  };

  const std::size_t n_req = in.snapshot.requests.size();
  for (const std::size_t i : in.order) {
    const std::uint64_t t0 = now_ns();
    const engine::EngineAdmission a = i < n_req ? eng.submit(in.snapshot.requests[i])
                                                : eng.submit(in.snapshot.offers[i - n_req]);
    r.submit(t0, now_ns(), false);
    if (!a.admitted()) ++p.failed;
    if (r.submit_start.size() % w.close_every == 0) run_epoch();
  }
  if (r.submit_start.size() % w.close_every != 0) run_epoch();  // the flush
  for (std::size_t k = 0; k < kDrainEpochs && eng.queued_bids() > 0; ++k) run_epoch();

  p.bids = in.order.size();
  engine::EngineReport report = eng.report();
  report.epochs = r.epochs.size();
  report.micro_epochs = r.epochs.size();
  finish_engine_pass(p, r, eng, std::move(report));

  if (const journal::Journal* journal = eng.journal(); journal != nullptr) {
    std::uint64_t drops = 0;
    for (std::size_t ring = 0; ring < journal->num_rings(); ++ring) drops += journal->dropped(ring);
    p.layer["journal.events"] = static_cast<double>(journal->total_events() + drops);
    p.layer["journal.drops"] = static_cast<double>(drops);
  }
  if (traced) {
    const std::size_t workers = pool ? pool->worker_count() + 1 : 1;
    fill_engine_layers(p, eng, eng.metrics_json(), r.epochs, shard_rounds, intervals, ran_ms,
                       workers, r.submit_us);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Auction passes: one DeCloudAuction::run per pass.

std::uint64_t block_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct RoundDigest {
  double welfare = 0.0;
  double payments = 0.0;
  std::size_t matches = 0;
  bool operator==(const RoundDigest&) const = default;
};

class AuctionRunner {
 public:
  explicit AuctionRunner(const std::vector<Inputs>& sets) : sets_(sets) {}

  /// One round on input set `set` with that set's block seed `block`.
  Pass pass(std::size_t set, std::size_t block, bool traced) {
    Pass p;
    p.traced = traced;

    // Set-up: the block's working bid set and the mechanism.
    const std::uint64_t s0 = now_ns();
    const auction::MarketSnapshot snapshot = sets_[set].snapshot;
    auction::AuctionConfig config;
    config.threads = pool_workers();
    const auction::DeCloudAuction mechanism(config);
    p.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

    std::optional<obs::MetricsSink> sink;
    if (traced) sink.emplace("auction", &g_clock);
    const std::uint64_t t0 = now_ns();
    const auction::RoundResult result =
        mechanism.run(snapshot, block_seed(sets_[set].seed, block), sink ? &*sink : nullptr);
    const std::uint64_t t1 = now_ns();

    p.bids = snapshot.requests.size() + snapshot.offers.size();
    p.wall_s = static_cast<double>(t1 - t0) / 1e9;
    p.epoch_ms = {ms_between(t0, t1)};
    p.clear_ms = {ms_between(t0, t1)};  // every bid of the round waits the whole round

    // Each (set, block seed) is verified the first time it runs and must
    // give the identical result every later time.
    const RoundDigest digest{result.welfare, result.total_payments, result.matches.size()};
    const auto [it, first] = results_.try_emplace({set, block}, digest);
    if (first) {
      const auction::VerificationReport v = auction::verify_invariants(snapshot, result, config);
      for (const std::string& violation : v.violations) {
        p.errors.push_back("auction::verify_invariants: " + violation);
      }
    } else if (!(it->second == digest)) {
      p.errors.push_back("block seed " + std::to_string(block) + " of input set " +
                         std::to_string(set) + " gave a different result on rerun");
    }
    p.welfare = digest.welfare;
    p.allocation_rate =
        static_cast<double>(digest.matches) / static_cast<double>(snapshot.requests.size());

    if (traced) {
      SpanTotals t;
      add_spans(t, *sink);
      const auto ms = [&](const char* name) { return t.ms.count(name) ? t.ms.at(name) : 0.0; };
      const auto work = [&](const char* name) {
        return static_cast<double>(t.work.count(name) ? t.work.at(name) : 0);
      };
      const double unattributed =
          static_cast<double>((t1 - t0) - marketbench::covered_ns(t.top_level, t0, t1)) / 1e6;
      auto& m = p.layer;
      m["auction.score_ms"] = ms("score");
      m["auction.pairs_scored"] = work("score");
      m["auction.cluster_ms"] = ms("cluster");
      m["auction.miniauction_ms"] = ms("miniauction");
      m["auction.trade_reduction_ms"] = ms("trade_reduction");
      m["unattributed_ms"] = unattributed;
      p.epoch_wall_ms = ms_between(t0, t1);
      p.rows = {
          {"auction.score", ms("score"), work("score"), "pairs"},
          {"auction.cluster", ms("cluster"), work("cluster"), "clusters"},
          {"auction.miniauction", ms("miniauction"), work("miniauction"), "auctions"},
          {"auction.trade_reduction", ms("trade_reduction"), work("trade_reduction"), "auctions"},
          {"unattributed", unattributed, 1.0, "rounds"},
      };
    }
    return p;
  }

  /// Distinct (set, block seed) rounds run so far.
  [[nodiscard]] std::size_t distinct_rounds() const { return results_.size(); }

  /// Mean welfare and allocation rate over every distinct round: fixed for
  /// a workload seed once all of them have run.
  [[nodiscard]] std::pair<double, double> mean_outcome() const {
    double welfare = 0.0;
    double rate = 0.0;
    for (const auto& [key, d] : results_) {
      welfare += d.welfare;
      rate += static_cast<double>(d.matches) /
              static_cast<double>(sets_[key.first].snapshot.requests.size());
    }
    const auto n = static_cast<double>(results_.size());
    return {welfare / n, rate / n};
  }

 private:
  const std::vector<Inputs>& sets_;
  std::map<std::pair<std::size_t, std::size_t>, RoundDigest> results_;
};

// ---------------------------------------------------------------------------
// Crypto calibration: the ledger's per-bid primitives timed on the run's own
// bids, since no span isolates them inside a round.

struct CryptoCalibration {
  double seal_us = 0.0;
  double verify_us = 0.0;
  double merkle_us_per_bid = 0.0;
  std::size_t bids = 0;
  bool ok = true;
};

CryptoCalibration calibrate_crypto(const Inputs& in, std::uint64_t seed) {
  Rng rng(seed ^ 0x63727970746fULL);  // "crypto"
  ledger::Participant wallet(rng);
  const std::size_t n = std::min(kCalibrationBids, in.order.size());
  const std::size_t n_req = in.snapshot.requests.size();
  std::vector<ledger::SealedBid> sealed;
  sealed.reserve(n);
  std::vector<double> seal_us;
  std::vector<double> verify_us;
  CryptoCalibration c;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = in.order[k];
    const std::uint64_t t0 = now_ns();
    sealed.push_back(i < n_req ? wallet.submit_request(in.snapshot.requests[i], rng)
                               : wallet.submit_offer(in.snapshot.offers[i - n_req], rng));
    seal_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  for (const ledger::SealedBid& bid : sealed) {
    const std::uint64_t t0 = now_ns();
    const bool ok = ledger::verify_sealed_bid(bid);
    verify_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    c.ok = c.ok && ok;
  }
  std::vector<double> merkle_us;
  crypto::Digest root{};
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    const crypto::Digest d = ledger::bids_merkle_root(sealed);
    merkle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (rep > 0 && d != root) c.ok = false;
    root = d;
  }
  c.seal_us = marketbench::median(seal_us);
  c.verify_us = marketbench::median(verify_us);
  c.merkle_us_per_bid = marketbench::median(merkle_us) / static_cast<double>(n);
  c.bids = n;
  return c;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;  ///< what the JSON line carries
};

const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"stream.submit_us.p50", "us"},     {"stream.closes", "count"},
      {"engine.shard_round_ms.p50", "ms"}, {"engine.shard_round_ms.max", "ms"},
      {"engine.imbalance", "ratio"},      {"engine.fanout_efficiency", "ratio"},
      {"ledger.pow_ms", "ms"},            {"ledger.pow_attempts", "count"},
      {"ledger.key_reveal_ms", "ms"},     {"ledger.allocation_ms", "ms"},
      {"ledger.verify_ms", "ms"},         {"ledger.append_ms", "ms"},
      {"ledger.unattributed_ms", "ms"},   {"ledger.seals_per_bid", "ratio"},
      {"crypto.seal_us", "us"},           {"crypto.verify_us", "us"},
      {"crypto.merkle_us_per_bid", "us"}, {"auction.score_ms", "ms"},
      {"auction.pairs_scored", "count"},  {"auction.cluster_ms", "ms"},
      {"auction.miniauction_ms", "ms"},   {"auction.trade_reduction_ms", "ms"},
      {"auction.index_reuse_ratio", "ratio"}, {"wal.bytes_per_bid", "bytes"},
      {"wal.records_per_bid", "ratio"},   {"journal.events", "count"},
      {"journal.drops", "count"},         {"unattributed_ms", "ms"},
      {"trace_overhead", "ratio"},
  };
  return units;
}

Outcome run_workload(const Workload& w, const Options& opt) {
  std::printf("== %s (seed %llu, %.0f s, trace %d) ==\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  const std::size_t n_sets = w.input_sets;
  std::vector<Inputs> sets;
  double generation_s = 0.0;
  for (std::size_t k = 0; k < n_sets; ++k) {
    sets.push_back(make_inputs(w, opt.seed * n_sets + k));
    generation_s += sets.back().generation_s;
  }
  std::printf("input generation: %.3f s (%zu sets of %zu requests and %zu offers; excluded from "
              "every metric)\n",
              generation_s, n_sets, sets[0].snapshot.requests.size(),
              sets[0].snapshot.offers.size());
  std::fflush(stdout);

  // Pass i runs input set (i / stride) % n_sets; with --trace 1 untraced
  // and traced passes alternate, so both kinds cover every set.  auction_round
  // also cycles each set's block seeds.
  const std::size_t stride = opt.trace ? 2 : 1;
  std::optional<AuctionRunner> auction;
  if (w.kind == Kind::kAuction) auction.emplace(sets);
  const auto one_pass = [&](std::size_t i, bool traced) {
    const std::size_t set = (i / stride) % n_sets;
    Pass p;
    switch (w.kind) {
      case Kind::kStream: p = stream_pass(w, sets[set], traced, opt); break;
      case Kind::kFanout: p = fanout_pass(w, sets[set], traced); break;
      case Kind::kAuction:
        p = auction->pass(set, (i / (stride * n_sets)) % kBlockSeeds, traced);
        break;
    }
    p.set = set;
    return p;
  };

  // Passes until the time is up, and at least until every set (and for
  // auction_round every block seed) has run untraced and, with --trace 1,
  // traced.
  const std::size_t min_passes =
      stride * n_sets * (w.kind == Kind::kAuction ? kBlockSeeds : 1);
  std::vector<Pass> passes;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0;
       static_cast<double>(now_ns() - start) / 1e9 < opt.seconds || i < min_passes; ++i) {
    passes.push_back(one_pass(i, opt.trace && i % 2 == 1));
  }
  if (!opt.trace) passes.push_back(one_pass(0, true));  // the correctness gate's traced pass
  if (w.wal) std::filesystem::remove_all(opt.wal_dir);

  std::vector<const Pass*> plain;
  std::vector<const Pass*> instrumented;
  std::vector<const Pass*> set_ref(n_sets, nullptr);  // first untraced pass per set
  for (const Pass& p : passes) {
    (p.traced ? instrumented : plain).push_back(&p);
    if (!p.traced && set_ref[p.set] == nullptr) set_ref[p.set] = &p;
  }

  // Correctness gate.
  Outcome out;
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    for (const std::string& e : p.errors) failures.push_back("pass " + std::to_string(i) + ": " + e);
    // auction_round repeats each block seed instead (AuctionRunner::pass).
    if (w.kind == Kind::kAuction) continue;
    const Pass& ref = *set_ref[p.set];
    if (p.summary != ref.summary) {
      failures.push_back("pass " + std::to_string(i) + (p.traced ? " (traced)" : "") +
                         ": EngineReport::summary_json differs from the set's first pass");
    }
    if (p.welfare != ref.welfare || p.allocation_rate != ref.allocation_rate) {
      failures.push_back("pass " + std::to_string(i) +
                         ": welfare or allocation_rate differs from the set's first pass");
    }
  }

  // End-to-end metrics, from untraced passes only.  Each pass yields its
  // duration and its own epoch and clear-time quantiles.  A shared virtual
  // machine runs through slow and fast phases lasting seconds, so a median
  // over passes
  // flips between the two levels; a trimmed mean per input set moves
  // smoothly with the mix instead, and the sets are then combined so that no
  // metric depends on which set's values sit mid-pool.
  const std::vector<const Pass*>& measured = plain;
  struct SetSamples {
    std::vector<double> wall_s, epoch_p50, clear_p50, clear_p99;
  };
  std::vector<SetSamples> per_set(n_sets);
  std::vector<double> setup_s;
  std::vector<double> clear_ms;  // pooled, for the reportable-tail line
  std::size_t epochs = 0;
  std::size_t bids = 0;
  std::size_t failed = 0;
  for (const Pass* p : measured) {
    SetSamples& ss = per_set[p->set];
    ss.wall_s.push_back(p->wall_s);
    ss.epoch_p50.push_back(marketbench::median(p->epoch_ms));
    ss.clear_p50.push_back(marketbench::median(p->clear_ms));
    ss.clear_p99.push_back(marketbench::quantile(p->clear_ms, 0.99));
    setup_s.push_back(p->setup_s);
    clear_ms.insert(clear_ms.end(), p->clear_ms.begin(), p->clear_ms.end());
    epochs += p->epoch_ms.size();
    bids += p->bids;
    failed += p->errors.empty() ? p->failed : p->bids;  // a failed check fails the whole pass
  }
  double pass_bids = 0.0;  // one pass over every set ...
  double pass_s = 0.0;     // ... and its duration
  double epoch_p50 = 0.0;
  double clear_p50 = 0.0;
  double clear_p99 = 0.0;
  const auto tmean = [](const std::vector<double>& v) {
    return marketbench::trimmed_mean(v, kTrim);
  };
  for (std::size_t k = 0; k < n_sets; ++k) {
    const SetSamples& ss = per_set[k];
    pass_bids += static_cast<double>(set_ref[k]->bids);
    pass_s += tmean(ss.wall_s);
    epoch_p50 += tmean(ss.epoch_p50) / static_cast<double>(n_sets);
    clear_p50 += tmean(ss.clear_p50) / static_cast<double>(n_sets);
    clear_p99 += tmean(ss.clear_p99) / static_cast<double>(n_sets);
  }
  // In auction_round each round's bids all wait the round, so each clear
  // sample stands for that many bids.
  const std::size_t clear_samples =
      w.kind == Kind::kAuction ? clear_ms.size() * plain.front()->bids : clear_ms.size();
  const double tail = marketbench::reportable_tail(clear_samples);
  // Welfare and allocation rate: means over the input sets (and block seeds).
  double welfare = 0.0;
  double allocation_rate = 0.0;
  if (auction) {
    std::tie(welfare, allocation_rate) = auction->mean_outcome();
  } else {
    for (const Pass* ref : set_ref) {
      welfare += ref->welfare / static_cast<double>(n_sets);
      allocation_rate += ref->allocation_rate / static_cast<double>(n_sets);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  out.attempted = bids;
  out.failed = failed;
  out.metrics = {
      {"bids_per_s", pass_bids / pass_s, "bids/s"},
      {"epoch_ms.p50", epoch_p50, "ms"},
      {"clear_ms.p50", clear_p50, "ms"},
      {"clear_ms.p99", clear_p99, "ms"},
      {"welfare", welfare, "usd"},
      {"allocation_rate", allocation_rate, "ratio"},
      {"setup_s", tmean(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
  const double failed_ratio = bids == 0 ? 0.0 : static_cast<double>(failed) / bids;

  std::printf("passes: %zu untraced, %zu traced (%s)\n", plain.size(), instrumented.size(),
              opt.trace ? "alternating" : "one, for the correctness gate");
  std::printf("%-18s %14.6g %-7s\n", "bids_per_s", out.metrics[0].value, "bids/s");
  std::printf("%-18s %14.6g %-7s (%zu epochs)\n", "epoch_ms.p50", out.metrics[1].value, "ms",
              epochs);
  std::printf("%-18s %14.6g %-7s (%zu bid samples)\n", "clear_ms.p50", out.metrics[2].value,
              "ms", clear_samples);
  std::printf("%-18s %14.6g %-7s (highest tail with >= 10 samples beyond, over all passes: "
              "%s = %.6g ms)\n",
              "clear_ms.p99", out.metrics[3].value, "ms", marketbench::quantile_name(tail),
              marketbench::quantile(clear_ms, tail));
  std::printf("%-18s %14.10g %-7s\n", "welfare", out.metrics[4].value, "usd");
  std::printf("%-18s %14.6g %-7s\n", "allocation_rate", out.metrics[5].value, "ratio");
  std::printf("%-18s %14.6g %-7s (%zu of %zu bids)\n", "failed_ratio", failed_ratio, "ratio",
              failed, bids);
  std::printf("%-18s %14.6g %-7s\n", "setup_s", out.metrics[6].value, "s");
  std::printf("%-18s %14.6g %-7s\n", "peak_rss_mb", out.metrics[7].value, "MB");

  if (opt.trace) {
    // Per-layer metrics: medians over the traced passes.
    std::map<std::string, double> layer;
    for (const auto& [name, unit] : layer_units()) {
      std::vector<double> v;
      for (const Pass* p : instrumented) {
        const auto it = p->layer.find(name);
        v.push_back(it == p->layer.end() ? 0.0 : it->second);
      }
      layer[name] = marketbench::median(v);
    }
    const CryptoCalibration crypto = calibrate_crypto(sets[0], opt.seed);
    if (!crypto.ok) failures.push_back("crypto calibration: a sealed bid failed verification");
    layer["crypto.seal_us"] = crypto.seal_us;
    layer["crypto.verify_us"] = crypto.verify_us;
    layer["crypto.merkle_us_per_bid"] = crypto.merkle_us_per_bid;
    // Traced throughput, combined over the sets like bids_per_s.
    std::vector<std::vector<double>> traced_wall(n_sets);
    for (const Pass* p : instrumented) traced_wall[p->set].push_back(p->wall_s);
    double traced_s = 0.0;
    for (const auto& v : traced_wall) traced_s += tmean(v);
    layer["trace_overhead"] = 1.0 - pass_bids / traced_s / out.metrics[0].value;

    // The table: self time, share of epoch wall time, work units, ns/unit.
    std::vector<double> epoch_walls;
    for (const Pass* p : instrumented) epoch_walls.push_back(p->epoch_wall_ms);
    const double epoch_wall = marketbench::median(epoch_walls);
    std::printf("\ntraced per-layer table (median of %zu traced passes; epoch wall %.3f ms)\n",
                instrumented.size(), epoch_wall);
    std::printf("%-32s %12s %8s %14s %-11s %12s\n", "layer", "self_ms", "%epoch", "units", "",
                "ns/unit");
    const std::vector<Row>& rows0 = instrumented.front()->rows;
    for (std::size_t i = 0; i < rows0.size(); ++i) {
      std::vector<double> self;
      std::vector<double> units;
      for (const Pass* p : instrumented) {
        self.push_back(p->rows[i].self_ms);
        units.push_back(p->rows[i].units);
      }
      const double s = marketbench::median(self);
      const double u = marketbench::median(units);
      std::printf("%-32s %12.3f %7.1f%% %14.0f %-11s %12.1f\n", rows0[i].layer.c_str(), s,
                  epoch_wall > 0 ? 100.0 * s / epoch_wall : 0.0, u, rows0[i].unit.c_str(),
                  u > 0 ? s * 1e6 / u : 0.0);
    }
    std::printf("%-32s %12.3f %8s %14zu %-11s %12.1f\n", "crypto.seal (calibration)",
                crypto.seal_us * static_cast<double>(crypto.bids) / 1e3, "-", crypto.bids, "bids",
                crypto.seal_us * 1e3);
    std::printf("%-32s %12.3f %8s %14zu %-11s %12.1f\n", "crypto.verify (calibration)",
                crypto.verify_us * static_cast<double>(crypto.bids) / 1e3, "-", crypto.bids,
                "bids", crypto.verify_us * 1e3);
    std::printf("%-32s %12.3f %8s %14zu %-11s %12.1f\n", "crypto.merkle (calibration)",
                crypto.merkle_us_per_bid * static_cast<double>(crypto.bids) / 1e3, "-",
                crypto.bids, "bids", crypto.merkle_us_per_bid * 1e3);
    std::printf("\nper-layer metrics\n");
    out.metrics.clear();
    for (const auto& [name, unit] : layer_units()) {
      std::printf("%-28s %14.6g %s\n", name, layer[name], unit);
      out.metrics.push_back({name, layer[name], unit});
    }
  }

  if (failures.empty()) {
    std::printf("correctness: ok (%s)\n",
                w.kind == Kind::kAuction
                    ? "verify_invariants on every distinct round, reruns identical"
                    : "audit_report, traced == untraced summary_json, welfare and "
                      "allocation_rate repeat");
  } else {
    out.correct = false;
    for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
  return out;
}

void print_json(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out.metrics[i].name.c_str(), out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload single_region|regional_fanout|durable_stream|auction_round|"
               "all [--seed N] [--seconds S] [--trace 0|1] [--wal-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--wal-dir") {
      opt.wal_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty() || !(opt.seconds > 0.0)) return usage(argv[0]);

  std::printf("market_bench: nproc %zu, scheduler pool %zu workers, dsched %s, audits %s\n",
              ThreadPool::default_workers(), pool_workers(), dsched::kEnabled ? "on" : "off",
              decloud::audit::kEnabled ? "on" : "off");
  Outcome total;
  for (const Workload* w : selected) {
    Outcome out = run_workload(*w, opt);
    total.correct = total.correct && out.correct;
    total.attempted += out.attempted;
    total.failed += out.failed;
    for (Metric& m : out.metrics) {
      if (selected.size() > 1) m.name = std::string(w->name) + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  print_json(total);
  return total.correct ? 0 : 1;
}
