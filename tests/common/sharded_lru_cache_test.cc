#include "src/common/sharded_lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace pcor {
namespace {

using IntCache = ShardedLruCache<int, int>;

LruCacheOptions SingleShard(size_t max_bytes, size_t max_entries = 0) {
  LruCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = max_bytes;
  options.max_entries = max_entries;
  return options;
}

TEST(ShardedLruCacheTest, PutGetRoundtrip) {
  IntCache cache;
  int value = 0;
  EXPECT_FALSE(cache.Get(1, &value));
  cache.Put(1, 10, 8);
  cache.Put(2, 20, 8);
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, 10);
  ASSERT_TRUE(cache.Get(2, &value));
  EXPECT_EQ(value, 20);
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_GT(stats.resident_bytes, 16u);  // cost + per-entry overhead
}

TEST(ShardedLruCacheTest, PutRefreshesExistingKey) {
  IntCache cache(SingleShard(/*max_bytes=*/0));
  cache.Put(1, 10, 8);
  cache.Put(1, 11, 8);
  int value = 0;
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, 11);
  EXPECT_EQ(cache.Stats().resident_entries, 1u);
}

TEST(ShardedLruCacheTest, EvictsFromTheColdEnd) {
  // Entry budget 3 on one shard: inserting a fourth key evicts exactly the
  // least recently used one.
  IntCache cache(SingleShard(/*max_bytes=*/0, /*max_entries=*/3));
  cache.Put(1, 10, 1);
  cache.Put(2, 20, 1);
  cache.Put(3, 30, 1);
  int value = 0;
  ASSERT_TRUE(cache.Get(1, &value));  // refresh 1: now 2 is coldest
  cache.Put(4, 40, 1);
  EXPECT_FALSE(cache.Get(2, &value));
  EXPECT_TRUE(cache.Get(1, &value));
  EXPECT_TRUE(cache.Get(3, &value));
  EXPECT_TRUE(cache.Get(4, &value));
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().resident_entries, 3u);
}

TEST(ShardedLruCacheTest, ByteBudgetForcesEviction) {
  // Each entry charges ~cost + overhead; a budget of ~2.5 entries keeps at
  // most two resident.
  IntCache cache(SingleShard(/*max_bytes=*/1000));
  for (int k = 0; k < 10; ++k) cache.Put(k, k, 300);
  const LruCacheStats stats = cache.Stats();
  EXPECT_LE(stats.resident_entries, 3u);
  EXPECT_GE(stats.evictions, 7u);
  EXPECT_LE(stats.resident_bytes, 1000u + 300u + 100u);
  // The most recent key always survives its own insert.
  int value = 0;
  EXPECT_TRUE(cache.Get(9, &value));
  EXPECT_EQ(value, 9);
}

TEST(ShardedLruCacheTest, OversizedEntryStaysServableAfterInsert) {
  IntCache cache(SingleShard(/*max_bytes=*/64));
  cache.Put(1, 10, 10'000);  // alone exceeds the whole budget
  int value = 0;
  EXPECT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, 10);
  // The next insert displaces it.
  cache.Put(2, 20, 10'000);
  EXPECT_FALSE(cache.Get(1, &value));
  EXPECT_TRUE(cache.Get(2, &value));
}

TEST(ShardedLruCacheTest, WholesaleClearDropsAllButNewest) {
  LruCacheOptions options = SingleShard(/*max_bytes=*/0, /*max_entries=*/4);
  options.wholesale_clear = true;
  IntCache cache(options);
  for (int k = 0; k < 5; ++k) cache.Put(k, k, 1);
  // Crossing the cap dropped the four older entries wholesale.
  int value = 0;
  for (int k = 0; k < 4; ++k) EXPECT_FALSE(cache.Get(k, &value));
  EXPECT_TRUE(cache.Get(4, &value));
  EXPECT_EQ(cache.Stats().evictions, 4u);
  EXPECT_EQ(cache.Stats().resident_entries, 1u);
}

TEST(ShardedLruCacheTest, EraseIfDropsExactlyTheMatchingKeys) {
  IntCache cache;
  for (int k = 0; k < 100; ++k) cache.Put(k, k * 10, 8);
  // Invalidate the even keys across every shard.
  const size_t erased = cache.EraseIf([](int key) { return key % 2 == 0; });
  EXPECT_EQ(erased, 50u);
  int value = 0;
  for (int k = 0; k < 100; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(cache.Get(k, &value)) << k;
    } else {
      ASSERT_TRUE(cache.Get(k, &value)) << k;
      EXPECT_EQ(value, k * 10);
    }
  }
  const LruCacheStats stats = cache.Stats();
  // Invalidations are counted apart from pressure evictions: a sweep is
  // staleness reclamation, not a sign the byte budget is too small.
  EXPECT_EQ(stats.invalidations, 50u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_entries, 50u);
  // A sweep matching nothing is a harmless no-op.
  EXPECT_EQ(cache.EraseIf([](int) { return false; }), 0u);
  EXPECT_EQ(cache.Stats().invalidations, 50u);
}

TEST(ShardedLruCacheTest, EraseIfReleasesBytesAndListLinks) {
  // After sweeping, the freed bytes must be reusable and the recency list
  // intact: filling the budget again evicts cleanly from the cold end.
  IntCache cache(SingleShard(/*max_bytes=*/0, /*max_entries=*/4));
  for (int k = 0; k < 4; ++k) cache.Put(k, k, 8);
  EXPECT_EQ(cache.EraseIf([](int key) { return key == 1 || key == 2; }), 2u);
  EXPECT_EQ(cache.Stats().resident_entries, 2u);
  cache.Put(10, 100, 8);
  cache.Put(11, 110, 8);  // back at the cap, no eviction yet
  EXPECT_EQ(cache.Stats().evictions, 0u);
  cache.Put(12, 120, 8);  // now key 0 (coldest survivor) must go
  int value = 0;
  EXPECT_FALSE(cache.Get(0, &value));
  EXPECT_TRUE(cache.Get(3, &value));
  EXPECT_TRUE(cache.Get(12, &value));
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().invalidations, 2u);
}

TEST(ShardedLruCacheTest, EraseIfRacesReadersSafely) {
  // Readers hammer Gets while a sweeper repeatedly invalidates half the key
  // space; values served must always be the ones inserted (no torn state).
  IntCache cache;
  for (int k = 0; k < 256; ++k) cache.Put(k, k * 7, 8);
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.EraseIf([](int key) { return key % 2 == 0; });
      for (int k = 0; k < 256; k += 2) cache.Put(k, k * 7, 8);
    }
  });
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 256; ++k) {
      int value = -1;
      if (cache.Get(k, &value)) {
        EXPECT_EQ(value, k * 7) << k;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
}

TEST(ShardedLruCacheTest, ClearEmptiesEveryShard) {
  IntCache cache;
  for (int k = 0; k < 100; ++k) cache.Put(k, k, 8);
  cache.Clear();
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  int value = 0;
  EXPECT_FALSE(cache.Get(42, &value));
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  LruCacheOptions options;
  options.num_shards = 5;
  IntCache cache(options);
  EXPECT_EQ(cache.num_shards(), 8u);
  options.num_shards = 0;  // auto
  IntCache auto_cache(options);
  EXPECT_GE(auto_cache.num_shards(), 1u);
  EXPECT_EQ(auto_cache.num_shards() & (auto_cache.num_shards() - 1), 0u);
}

TEST(ShardedLruCacheTest, SharedPtrValuesSurviveEviction) {
  // The verifier's usage pattern: values are shared_ptrs, and a copy handed
  // out by Get() must stay valid after the entry is evicted.
  ShardedLruCache<int, std::shared_ptr<const std::string>> cache(
      SingleShard(/*max_bytes=*/0, /*max_entries=*/1));
  cache.Put(1, std::make_shared<const std::string>("alpha"), 5);
  std::shared_ptr<const std::string> held;
  ASSERT_TRUE(cache.Get(1, &held));
  cache.Put(2, std::make_shared<const std::string>("beta"), 4);  // evicts 1
  std::shared_ptr<const std::string> probe;
  EXPECT_FALSE(cache.Get(1, &probe));
  EXPECT_EQ(*held, "alpha");
}

TEST(ShardedLruCacheTest, ConcurrentHammerKeepsValuesConsistent) {
  // 8 threads × mixed Get/Put over a small key space with a budget tight
  // enough to evict constantly. Values are a pure function of the key, so
  // any hit must return exactly f(key).
  LruCacheOptions options;
  options.num_shards = 4;
  options.max_bytes = 4096;
  ShardedLruCache<int, int> cache(options);
  constexpr int kKeys = 64;
  constexpr int kOpsPerThread = 20'000;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int key = static_cast<int>((state >> 33) % kKeys);
        int value = -1;
        if (cache.Get(key, &value)) {
          if (value != key * 3) bad.fetch_add(1);
        } else {
          cache.Put(key, key * 3, 64);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  const LruCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<size_t>(8) * kOpsPerThread);
}

}  // namespace
}  // namespace pcor
