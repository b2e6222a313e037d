// A bounded multi-producer / single-consumer ingest queue.
//
// The sharded engine (src/engine/) feeds each regional market through one
// of these: producers on any thread push bids, the epoch scheduler drains
// the whole queue at the next tick.  The capacity is the one admission
// rule: a push is admitted while the depth is below capacity and refused
// (backpressure — the producer must retry later) once it is reached, so
// producers see refusal instead of unbounded growth.
//
// The consumer side (`drain`) is not synchronized against other consumers
// — exactly one thread may drain, per the MPSC contract.  Producers and
// the consumer may interleave freely; admission is decided under the
// lock drain takes, so every admitted value surfaces in exactly one drain
// (the dsched model `queue_admission` explores every interleaving).
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/ensure.hpp"
#include "dsched/sync.hpp"

namespace decloud {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    DECLOUD_EXPECTS(capacity > 0);
  }

  /// Thread-safe producer side: true when `value` was admitted, false
  /// when the queue is at capacity.  FIFO order is the lock acquisition
  /// order.
  [[nodiscard]] bool push(T value) {
    const std::lock_guard<dsched::mutex> lock(mutex_);
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    return true;
  }

  /// Single-consumer side: removes and returns everything queued, in FIFO
  /// order.
  [[nodiscard]] std::vector<T> drain() {
    const std::lock_guard<dsched::mutex> lock(mutex_);
    std::vector<T> out(std::make_move_iterator(items_.begin()),
                       std::make_move_iterator(items_.end()));
    items_.clear();
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<dsched::mutex> lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable dsched::mutex mutex_;
  std::deque<T> items_;
};

}  // namespace decloud
