#include "src/common/threading.h"

#include <gtest/gtest.h>

#include <atomic>

namespace pcor {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(DefaultThreadCountTest, AtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(PoolParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, 0, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(PoolParallelForTest, MaxParallelOneRunsSeriallyInOrder) {
  ThreadPool pool(4);
  std::vector<size_t> order;
  pool.ParallelFor(5, 1, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(PoolParallelForTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(PoolParallelForTest, PoolIsReusableAfterALoop) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.ParallelFor(100, 0, [&](size_t) { counter.fetch_add(1); });
  pool.ParallelFor(100, 2, [&](size_t) { counter.fetch_add(1); });
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 201);
}

TEST(PoolParallelForTest, OrderedSlotsAreIdenticalForEveryThreadCount) {
  // The determinism contract: fn(i) writing slot i yields the same gathered
  // vector whatever the parallelism, including 1.
  const size_t n = 4096;
  std::vector<double> serial(n);
  for (size_t i = 0; i < n; ++i) serial[i] = static_cast<double>(i) * 1.5;
  for (size_t max_parallel : {size_t{1}, size_t{2}, size_t{0}}) {
    ThreadPool pool(4);
    std::vector<double> out(n, -1.0);
    pool.ParallelFor(n, max_parallel, [&](size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    EXPECT_EQ(out, serial) << "max_parallel=" << max_parallel;
  }
}

TEST(PoolParallelForTest, NestedLoopOnSamePoolDoesNotDeadlock) {
  // Outer chunks run on pool workers; each opens an inner ParallelFor on
  // the SAME pool. The caller-participation design must drain everything
  // even though every worker is already busy in the outer loop.
  ThreadPool pool(2);
  const size_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.ParallelFor(outer, 0, [&](size_t o) {
    pool.ParallelFor(inner, 0, [&](size_t i) {
      hits[o * inner + i].fetch_add(1);
    });
  });
  for (size_t k = 0; k < outer * inner; ++k) {
    ASSERT_EQ(hits[k].load(), 1) << k;
  }
}

TEST(PoolParallelForTest, WorkerInitiatedLoopCompletes) {
  // A ParallelFor started from inside Submit'ed work (not the owner
  // thread) must complete too — this is the serving pattern, where batch
  // workers run releases whose sharded probes open loops of their own.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    pool.ParallelFor(500, 0, [&](size_t) { counter.fetch_add(1); });
    done.store(true);
  });
  pool.Wait();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(counter.load(), 500);
}

}  // namespace
}  // namespace pcor
