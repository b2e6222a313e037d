#include "dsched/models.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/thread_pool.hpp"
#include "dsched/sync.hpp"
#include "engine/driver.hpp"
#include "stream/stream_driver.hpp"
#include "stream/streaming_market.hpp"

namespace decloud::dsched {

namespace {

std::string join_ints(const std::vector<int>& values) {
  std::string out;
  for (int v : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// queue_admission: two producers race a concurrent drain on a capacity-2
// BoundedQueue.  Under EVERY interleaving the admission results must
// reconcile exactly with what the drains return: admitted values all
// surface, rejected values never do, and admitted + rejected == pushed.
// ---------------------------------------------------------------------------

std::function<void()> queue_admission_body() {
  return [] {
    BoundedQueue<int> queue(/*capacity=*/2);
    std::array<std::vector<int>, 2> admitted;
    std::array<int, 2> rejected{0, 0};
    std::vector<int> drained;

    const auto producer = [&](int p) {
      for (int i = 0; i < 2; ++i) {
        const int value = (p + 1) * 10 + i;
        if (queue.push(value)) {
          admitted[static_cast<std::size_t>(p)].push_back(value);
        } else {
          ++rejected[static_cast<std::size_t>(p)];
        }
      }
    };
    dsched::thread p0([&] { producer(0); });
    dsched::thread p1([&] { producer(1); });
    for (int value : queue.drain()) drained.push_back(value);  // racing drain
    p0.join();
    p1.join();
    for (int value : queue.drain()) drained.push_back(value);  // residue

    std::vector<int> expected = admitted[0];
    expected.insert(expected.end(), admitted[1].begin(), admitted[1].end());
    std::sort(expected.begin(), expected.end());
    std::sort(drained.begin(), drained.end());
    check(drained == expected, "admitted {" + join_ints(expected) + "} != drained {" +
                                   join_ints(drained) + "}: a bid was lost or invented");
    check(expected.size() + static_cast<std::size_t>(rejected[0] + rejected[1]) == 4,
          "admitted + rejected must equal pushes");
  };
}

// ---------------------------------------------------------------------------
// pool_nested: caller-helping nested parallel_for on a single-worker pool
// — the PR 2 no-deadlock contract.  A schedule where the nested call
// waits on a worker that never frees up would surface as a deadlock.
// ---------------------------------------------------------------------------

std::function<void()> pool_nested_body() {
  return [] {
    ThreadPool pool(1);
    // Chunk 0 issues a genuinely nested 2-chunk parallel_for (the inner
    // call queues a helper on the already-busy single worker, so only
    // caller-helping can finish it); chunk 1 stays flat to keep the DFS
    // depth exhaustively explorable.
    std::array<int, 3> hits{};  // distinct slots: no synchronization needed
    pool.parallel_for(0, 2, 1, [&](std::size_t i) {
      if (i == 0) {
        pool.parallel_for(0, 2, 1, [&](std::size_t j) { ++hits[j]; });
      } else {
        ++hits[2];
      }
    });
    for (std::size_t s = 0; s < hits.size(); ++s) {
      check(hits[s] == 1, "index " + std::to_string(s) + " ran " + std::to_string(hits[s]) +
                              " times (must be exactly once)");
    }
  };
}

// ---------------------------------------------------------------------------
// pool_exception: both chunks throw; the deterministic-error contract
// says the LOWEST chunk's exception is rethrown whatever the schedule,
// and every chunk still runs exactly once.
// ---------------------------------------------------------------------------

std::function<void()> pool_exception_body() {
  return [] {
    ThreadPool pool(1);
    std::array<int, 2> runs{};
    std::string caught;
    try {
      pool.parallel_for(0, 2, 1, [&](std::size_t i) {
        ++runs[i];
        throw std::runtime_error("chunk" + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    check(caught == "chunk0", "lowest-chunk exception must win deterministically; got \"" +
                                  caught + "\"");
    check(runs[0] == 1 && runs[1] == 1, "each chunk must run exactly once despite the throws");
  };
}

// ---------------------------------------------------------------------------
// pool_shutdown: construct/destroy races.  A lost wakeup between the
// destructor's stop-flag write and a worker parking in cv.wait would
// leave the join hanging — which the scheduler reports as a deadlock.
// ---------------------------------------------------------------------------

std::function<void()> pool_shutdown_body() {
  return [] {
    {
      ThreadPool idle(2);  // workers may park before OR after stop is set
    }
  };
}

// ---------------------------------------------------------------------------
// stream_2shard: the consensus-critical end-to-end path.  A 2-shard
// StreamingMarket with a 2-thread scheduler ingests a fixed 10-bid
// workload through 3 micro-epoch closes + drain; the EngineReport
// summary must be byte-identical under every sampled schedule (the
// determinism claim PAPER.md §V rests on).
// ---------------------------------------------------------------------------

stream::StreamConfig stream_model_config() {
  stream::StreamConfig config;
  config.engine.router.num_shards = 2;
  config.engine.router.x0 = 0.0;
  config.engine.router.x1 = 100.0;
  config.engine.router.y0 = 0.0;
  config.engine.router.y1 = 100.0;
  config.engine.market.consensus.difficulty_bits = 5;
  config.engine.market.num_verifiers = 1;
  config.engine.market.consensus.auction.threads = 1;
  config.triggers.bids = 4;
  config.threads = 2;  // real shard fan-out: 2 pool workers under the model
  config.drain_epochs = 4;
  return config;
}

std::function<void()> stream_2shard_body() {
  auto config = std::make_shared<const stream::StreamConfig>(stream_model_config());
  engine::TraceDriverConfig driver;
  driver.workload.num_requests = 6;
  driver.workload.num_offers = 4;
  driver.located_fraction = 1.0;
  driver.seed = 7;
  auto expected = std::make_shared<std::string>();  // bytes from the first schedule

  return [config, driver, expected] {
    stream::StreamingMarket market(*config);
    const std::string summary =
        stream::drive_trace_stream(market, driver).drive.report.summary_json();
    if (expected->empty()) {
      *expected = summary;
    }
    check(summary == *expected,
          "EngineReport bytes diverged across schedules: consensus would fork");
  };
}

Options exhaustive_options() {
  Options options;
  options.mode = Options::Mode::kExhaustive;
  options.max_schedules = 2000000;
  options.max_steps = 5000;
  return options;
}

Options pct_options() {
  Options options;
  options.mode = Options::Mode::kPct;
  options.seed = 42;
  options.max_schedules = 200;
  options.max_steps = 50000;
  return options;
}

std::vector<ModelSpec> build_models() {
  std::vector<ModelSpec> out;
  out.push_back({"queue_admission",
                 "2 producers + racing drain on a capacity-2 BoundedQueue: admission counters "
                 "reconcile with drained values under all interleavings",
                 exhaustive_options(), queue_admission_body});
  out.push_back({"pool_nested",
                 "nested caller-helping parallel_for on a 1-worker pool never deadlocks; every "
                 "index runs exactly once",
                 exhaustive_options(), pool_nested_body});
  out.push_back({"pool_exception",
                 "both chunks throw: the lowest chunk's exception is rethrown under every "
                 "schedule",
                 exhaustive_options(), pool_exception_body});
  out.push_back({"pool_shutdown",
                 "ThreadPool construct/destroy races: no lost wakeup across shutdown",
                 exhaustive_options(), pool_shutdown_body});
  out.push_back({"stream_2shard",
                 "2-shard StreamingMarket, 2-thread fan-out, 10-bid stream: EngineReport "
                 "summary_json is byte-identical under every sampled schedule",
                 pct_options(), stream_2shard_body});
  return out;
}

}  // namespace

const std::vector<ModelSpec>& models() {
  static const std::vector<ModelSpec> kModels = build_models();
  return kModels;
}

const ModelSpec* find_model(const std::string& name) {
  for (const ModelSpec& m : models()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace decloud::dsched
