// Exhaustive interleaving exploration of BoundedQueue (DESIGN.md §3i):
// the admission-reconciliation model must hold under EVERY schedule, and
// the DFS must complete within budget so the verdict is a proof over the
// modelled yield points, not a sample.

#include <gtest/gtest.h>

#include <iostream>

#include "dsched/models.hpp"
#include "dsched/scheduler.hpp"

namespace decloud::dsched {
namespace {

RunResult explore_model(const char* name) {
  const ModelSpec* spec = find_model(name);
  EXPECT_NE(spec, nullptr) << name;
  const RunResult result = explore(spec->options, spec->make_body());
  std::cout << "[dsched] " << name << ": " << result.schedules << " schedules, " << result.pruned
            << " pruned, complete=" << (result.complete ? "true" : "false") << "\n";
  return result;
}

TEST(dsched_queue_model, AdmissionCountersReconcileUnderAllInterleavings) {
  const RunResult result = explore_model("queue_admission");
  EXPECT_FALSE(result.failed) << result.failure << "\n  " << result.certificate;
  EXPECT_TRUE(result.complete) << "DFS budget too small for a full proof";
  EXPECT_GE(result.max_threads, 3u);  // body + 2 producers
}

}  // namespace
}  // namespace decloud::dsched
