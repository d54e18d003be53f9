#include "src/common/mpmc_queue.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pcor {
namespace {

using std::chrono::milliseconds;

TEST(BoundedMpmcQueueTest, FifoSingleThread) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.Push(1), QueueOp::kOk);
  EXPECT_EQ(q.Push(2), QueueOp::kOk);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedMpmcQueueTest, CloseFailsPushesButDrainsPops) {
  BoundedMpmcQueue<int> q(4);
  ASSERT_EQ(q.Push(10), QueueOp::kOk);
  ASSERT_EQ(q.Push(11), QueueOp::kOk);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.Push(12), QueueOp::kClosed);
  int out = 0;
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  EXPECT_EQ(out, 10);
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  EXPECT_EQ(out, 11);
  // Drained: pop now reports closed instead of blocking.
  EXPECT_EQ(q.Pop(&out), QueueOp::kClosed);
}

TEST(BoundedMpmcQueueTest, BlockedPushWakesOnPop) {
  BoundedMpmcQueue<int> q(1);
  ASSERT_EQ(q.Push(1), QueueOp::kOk);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.Push(2), QueueOp::kOk);  // blocks until the pop below
    pushed.store(true);
  });
  std::this_thread::sleep_for(milliseconds(10));
  EXPECT_FALSE(pushed.load());
  int out = 0;
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  EXPECT_EQ(out, 2);
}

TEST(BoundedMpmcQueueTest, CloseWakesBlockedPush) {
  BoundedMpmcQueue<int> q(1);
  ASSERT_EQ(q.Push(1), QueueOp::kOk);
  std::thread producer([&] { EXPECT_EQ(q.Push(2), QueueOp::kClosed); });
  std::this_thread::sleep_for(milliseconds(5));
  q.Close();
  producer.join();
}

TEST(BoundedMpmcQueueTest, CloseWakesBlockedPop) {
  BoundedMpmcQueue<int> q(1);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_EQ(q.Pop(&out), QueueOp::kClosed);
  });
  std::this_thread::sleep_for(milliseconds(5));
  q.Close();
  consumer.join();
}

TEST(BoundedMpmcQueueTest, MoveOnlyElements) {
  BoundedMpmcQueue<std::unique_ptr<int>> q(2);
  EXPECT_EQ(q.Push(std::make_unique<int>(7)), QueueOp::kOk);
  std::unique_ptr<int> out;
  EXPECT_EQ(q.Pop(&out), QueueOp::kOk);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

// The stress shape the server relies on: many producers racing many
// consumers through a small buffer, every element delivered exactly once.
TEST(BoundedMpmcQueueTest, ManyProducersManyConsumersDeliverExactlyOnce) {
  constexpr size_t kProducers = 8;
  constexpr size_t kConsumers = 4;
  constexpr size_t kPerProducer = 500;
  BoundedMpmcQueue<size_t> q(16);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(q.Push(p * kPerProducer + i), QueueOp::kOk);
      }
    });
  }

  std::mutex seen_mu;
  std::set<size_t> seen;
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      size_t item = 0;
      while (q.Pop(&item) == QueueOp::kOk) {
        std::unique_lock<std::mutex> lock(seen_mu);
        const bool inserted = seen.insert(item).second;
        EXPECT_TRUE(inserted) << "duplicate delivery of " << item;
      }
    });
  }

  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace pcor
