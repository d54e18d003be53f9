#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pcor {

/// \brief CPU-to-NUMA-node mapping, parsed once from
/// /sys/devices/system/node (no libnuma dependency). On machines without
/// the sysfs tree (or non-Linux) it degrades to a single node owning every
/// CPU, which makes all NUMA-aware behavior a no-op.
struct CpuTopology {
  size_t num_nodes = 1;
  /// cpus_of_node[node] = CPU ids belonging to that node, ascending.
  std::vector<std::vector<int>> cpus_of_node;
};

/// \brief The host's topology (parsed once, cached). Thread-safe.
const CpuTopology& SystemTopology();

/// \brief Replaces the cached topology — lets tests exercise multi-node
/// placement logic on single-node hosts. Pass a default-constructed
/// CpuTopology with num_nodes == 0 to restore the real host topology.
void SetTopologyForTest(CpuTopology topology);

/// \brief The NUMA node the calling thread is associated with: the node a
/// NUMA-aware ThreadPool pinned it to, else the node of the CPU it is
/// currently running on (0 on single-node hosts). Used by ShardedLruCache
/// to route a thread to its node-local shard group.
size_t CurrentNumaNode();

/// \brief Overrides CurrentNumaNode for the calling thread. ThreadPool
/// workers call this after pinning; tests use it to simulate placement.
/// A negative value clears the override.
void SetCurrentThreadNumaNode(int node);

/// \brief Placement policy for ThreadPool workers.
struct ThreadPoolOptions {
  /// Pin each worker to one NUMA node's CPU set, distributing workers
  /// round-robin across nodes (worker i → node i % num_nodes). Workers may
  /// migrate between CPUs of their node but never across nodes, so their
  /// allocations and the cache shards they touch stay node-local. No-op on
  /// single-node hosts and on platforms without sched_setaffinity.
  bool pin_to_numa_nodes = false;
};

/// \brief Options picked by the PCOR_PIN_THREADS env var (nonzero → pin);
/// the default keeps the placement-blind behavior.
ThreadPoolOptions DefaultThreadPoolOptions();

/// \brief Fixed-size worker pool for embarrassingly parallel experiment
/// trials (the paper repeats every configuration 200 times).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads,
                      ThreadPoolOptions options = DefaultThreadPoolOptions());
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

  /// \brief The NUMA node worker `i` is associated with (0 when pinning is
  /// off or the host has one node).
  size_t worker_node(size_t i) const { return worker_nodes_[i]; }

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::vector<size_t> worker_nodes_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// \brief Runs fn(i) for i in [0, n) across up to `num_threads` threads
/// (the caller plus a transient ThreadPool) and blocks until completion.
/// fn must be thread-safe across distinct i.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn);

/// \brief Hardware concurrency with a sane floor of 1.
size_t DefaultThreadCount();

}  // namespace pcor
