#include "common/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/ensure.hpp"
#include "dsched/sync.hpp"

namespace decloud {
namespace {

// Capacity is the only admission rule: every push below it is admitted
// (there is no separate "queued" congestion tier), the one at it refused.
TEST(BoundedQueueTest, AcceptsBelowWatermarkQueuesAboveRejectsAtCapacity) {
  BoundedQueue<int> q(/*capacity=*/4);
  EXPECT_TRUE(q.push(1));  // depth 1
  EXPECT_TRUE(q.push(2));  // depth 2
  EXPECT_TRUE(q.push(3));  // depth 3
  EXPECT_TRUE(q.push(4));  // depth 4 (== capacity)
  EXPECT_FALSE(q.push(5));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.drain(), (std::vector<int>{1, 2, 3, 4}));  // the refused value never entered
}

// A queue built from a capacity alone admits up to that capacity with no
// congestion signal, and refuses the next push.
TEST(BoundedQueueTest, DefaultWatermarkDisablesCongestionSignal) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_FALSE(q.push(4));
}

TEST(BoundedQueueTest, DrainReturnsFifoAndResetsDepth) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) (void)q.push(i);
  const auto items = q.drain();
  EXPECT_EQ(items, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
  // Depth reset: admission works again after a drain.
  EXPECT_TRUE(q.push(99));
}

TEST(BoundedQueueTest, DrainReopensAdmissionAfterRejection) {
  BoundedQueue<int> q(2);
  (void)q.push(1);
  (void)q.push(2);
  EXPECT_FALSE(q.push(3));
  (void)q.drain();
  EXPECT_TRUE(q.push(3));
}

TEST(BoundedQueueTest, ZeroCapacityIsAPreconditionViolation) {
  EXPECT_THROW(BoundedQueue<int>(0), precondition_error);
}

TEST(BoundedQueueTest, ConcurrentProducersNeverExceedCapacityOrLoseItems) {
  constexpr std::size_t kCapacity = 64;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> q(kCapacity);

  dsched::atomic<int> admitted{0};
  dsched::atomic<int> rejected{0};
  std::vector<dsched::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.push(p * kPerProducer + i)) {
          ++admitted;
        } else {
          ++rejected;
        }
      }
    });
  }
  // Single consumer drains concurrently (the MPSC contract).
  dsched::atomic<bool> stop{false};
  std::size_t drained = 0;
  dsched::thread consumer([&] {
    while (!stop.load()) drained += q.drain().size();
  });
  for (auto& t : producers) t.join();
  stop.store(true);
  consumer.join();
  drained += q.drain().size();

  EXPECT_EQ(admitted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained, static_cast<std::size_t>(admitted.load()));
}

}  // namespace
}  // namespace decloud
