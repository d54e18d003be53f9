#include "src/common/future.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pcor {
namespace {

using std::chrono::milliseconds;

TEST(FutureTest, DefaultConstructedIsInvalid) {
  Future<int> f;
  EXPECT_FALSE(f.valid());
}

TEST(FutureTest, SetBeforeGet) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.Ready());
  p.Set(42);
  EXPECT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), 42);
  EXPECT_FALSE(f.valid()) << "Get() consumes the future";
}

TEST(FutureTest, GetBlocksUntilProducerDelivers) {
  Promise<std::string> p;
  Future<std::string> f = p.GetFuture();
  std::thread producer([&p] {
    std::this_thread::sleep_for(milliseconds(10));
    p.Set("done");
  });
  EXPECT_EQ(f.Get(), "done");
  producer.join();
}

TEST(FutureTest, WaitForTimesOutThenSucceeds) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  EXPECT_FALSE(f.WaitFor(milliseconds(1)));
  p.Set(1);
  EXPECT_TRUE(f.WaitFor(milliseconds(1)));
}

TEST(FutureTest, AbandonedPromiseDeliversBrokenPromise) {
  Future<int> f;
  {
    Promise<int> p;
    f = p.GetFuture();
  }  // p dies without a value
  EXPECT_TRUE(f.Ready());
  EXPECT_THROW(f.Get(), BrokenPromise);
}

TEST(FutureTest, MoveAssignedPromiseAbandonsItsOldState) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  p = Promise<int>();  // the original shared state is abandoned
  EXPECT_THROW(f.Get(), BrokenPromise);
  Future<int> f2 = p.GetFuture();
  p.Set(5);
  EXPECT_EQ(f2.Get(), 5);
}

TEST(FutureTest, MoveOnlyValueType) {
  Promise<std::unique_ptr<int>> p;
  Future<std::unique_ptr<int>> f = p.GetFuture();
  p.Set(std::make_unique<int>(9));
  std::unique_ptr<int> v = f.Get();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 9);
}

TEST(FutureTest, ManyWaitersStyleFanOut) {
  // One producer completing many futures while consumers block on Get —
  // the exact shape of a server completing a coalesced micro-batch.
  constexpr size_t kN = 64;
  std::vector<Promise<size_t>> promises(kN);
  std::vector<Future<size_t>> futures;
  futures.reserve(kN);
  for (auto& p : promises) futures.push_back(p.GetFuture());

  std::atomic<size_t> sum{0};
  std::vector<std::thread> consumers;
  for (size_t i = 0; i < kN; ++i) {
    consumers.emplace_back(
        [&futures, &sum, i] { sum.fetch_add(futures[i].Get()); });
  }
  std::thread producer([&promises] {
    for (size_t i = 0; i < kN; ++i) promises[i].Set(i + 1);
  });
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(), kN * (kN + 1) / 2);
}

}  // namespace
}  // namespace pcor
