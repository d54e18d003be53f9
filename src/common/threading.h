#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pcor {

/// \brief Fixed-size worker pool: the one executor for segment probes,
/// batch fan-out, query-outlier selection and reference builds.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task; tasks must not throw.
  void Submit(std::function<void()> task);

  /// \brief Blocks until every submitted task has finished.
  void Wait();

  /// \brief Deterministic scatter-gather over [0, n): runs fn(i) for every
  /// i exactly once across the pool's workers plus the calling thread, and
  /// returns when all n calls have completed. At most `max_parallel`
  /// threads (caller included; 0 = no limit) execute concurrently.
  ///
  /// Chunk boundaries are fixed by (n) alone — workers dynamically claim
  /// the next unclaimed index, so *which* thread runs fn(i) varies, but as
  /// long as fn(i) writes only to its own result slot i the gathered output
  /// is bit-identical for every thread count, including 1. This is the
  /// same canonical-merge discipline the SIMD kernels use for lane
  /// reductions, lifted to task granularity.
  ///
  /// Reentrancy-safe by construction: the caller participates in draining
  /// the index range, so the loop completes even when every pool worker is
  /// busy — including when the caller *is* a pool worker already inside an
  /// outer ParallelFor (nested calls submit helper tasks that are a no-op
  /// if they arrive late, and never wait on the pool's queue). A thread
  /// waiting in ParallelFor only executes chunks of its *own* loop, never
  /// unrelated pool tasks, which is what keeps the detectors'
  /// thread_local scratch buffers safe (see outlier/detector.h).
  ///
  /// fn must not throw.
  void ParallelFor(size_t n, size_t max_parallel,
                   const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// \brief Hardware concurrency with a sane floor of 1.
size_t DefaultThreadCount();

}  // namespace pcor
