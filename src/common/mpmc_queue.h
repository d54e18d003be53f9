#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "src/common/logging.h"

namespace pcor {

/// \brief Outcome of a queue operation; lets callers translate each failure
/// mode into its own typed Status (tenant full -> ResourceExhausted,
/// closed -> Unavailable shutdown) instead of collapsing them into a bool.
enum class QueueOp {
  kOk = 0,
  kEmpty,      ///< TryPop on an empty (but open) WeightedFairQueue
  kClosed,     ///< Push after Close(), or Pop after Close() drained everything
  kTenantFull, ///< push past a per-tenant depth bound (WeightedFairQueue)
};

/// \brief Bounded multi-producer multi-consumer FIFO queue.
///
/// Many threads push and pop (the trace driver's completion queue is one).
/// Both block: Push while the queue is full, Pop while it is empty. The
/// serving admission queue, WeightedFairQueue, mirrors these semantics.
///
/// Close() semantics follow Go channels: after Close() every push fails
/// with kClosed, but pops continue to drain already-accepted elements and
/// only report kClosed once the queue is empty — so a graceful shutdown
/// never drops accepted work on the floor.
template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(size_t capacity) : capacity_(capacity) {
    PCOR_CHECK(capacity > 0) << "queue capacity must be positive";
  }

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// \brief Blocks while the queue is full; kOk once `item` is accepted,
  /// kClosed if the queue closed before (or while) waiting for space.
  QueueOp Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return QueueOp::kClosed;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return QueueOp::kOk;
  }

  /// \brief Blocks until an element is available or the queue is closed
  /// *and* drained.
  QueueOp Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return QueueOp::kClosed;
    *out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return QueueOp::kOk;
  }

  /// \brief Closes the queue: wakes every waiter, fails future pushes,
  /// lets pops drain the remaining elements. Idempotent.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::unique_lock<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }
  bool closed() const {
    std::unique_lock<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace pcor
