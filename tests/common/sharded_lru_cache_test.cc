#include "src/common/sharded_lru_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"

namespace pcor {
namespace {

using IntCache = ShardedLruCache<int, int>;

LruCacheOptions SingleShard(size_t max_bytes) {
  LruCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = max_bytes;
  return options;
}

// The bytes one entry of value cost `cost` charges to the budget (cost plus
// the cache's per-entry bookkeeping), read off an unbounded cache. An entry
// budget of k is a byte budget of k times this, when every cost is equal.
template <typename K, typename V, typename Hash = std::hash<K>>
size_t EntryCharge(size_t cost) {
  ShardedLruCache<K, V, Hash> cache(SingleShard(/*max_bytes=*/0));
  cache.Put(K{}, V{}, cost);
  return cache.Stats().resident_bytes;
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
  // A budget of 3 entries on one shard: inserting a fourth key evicts
  // exactly the least recently used one.
  IntCache cache(SingleShard(3 * EntryCharge<int, int>(1)));
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
  LruCacheOptions options = SingleShard(4 * EntryCharge<int, int>(1));
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
  IntCache cache(SingleShard(4 * EntryCharge<int, int>(8)));
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
  // A budget of one entry.
  ShardedLruCache<int, std::shared_ptr<const std::string>> cache(SingleShard(
      EntryCharge<int, std::shared_ptr<const std::string>>(5)));
  cache.Put(1, std::make_shared<const std::string>("alpha"), 5);
  std::shared_ptr<const std::string> held;
  ASSERT_TRUE(cache.Get(1, &held));
  cache.Put(2, std::make_shared<const std::string>("beta"), 4);  // evicts 1
  std::shared_ptr<const std::string> probe;
  EXPECT_FALSE(cache.Get(1, &probe));
  EXPECT_EQ(*held, "alpha");
}

// ---------------------------------------------------------------------------
// Differential model check against a reference LRU.
//
// The cache mixes a key's hash as h = hash * kGolden, takes the shard from
// h's top bits (48 and up) and the home slot from bits 16 and up. ModelHash
// inverts that multiply so each key states its own shard and home slot:
// most keys crowd the last two slots and the first two of the table, at
// every capacity, so probe chains wrap around the end and erasures
// backward-shift entries across the wrap.

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

constexpr uint64_t InverseMod64(uint64_t a) {
  uint64_t x = a;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}
static_assert(kGolden * InverseMod64(kGolden) == 1);

struct ModelKey {
  uint32_t id = 0;
  bool operator==(const ModelKey& other) const { return id == other.id; }
};

uint32_t ModelHome(uint32_t id) {
  // All-ones low bits land on the last slot whatever the capacity.
  static constexpr uint32_t kHomes[] = {0x7fffffff, 0x7ffffffe, 0, 1};
  return id % 5 < 4 ? kHomes[id % 5] : id * 2654435761u;
}

struct ModelHash {
  size_t operator()(const ModelKey& key) const {
    const uint64_t mixed = (uint64_t{key.id % 4} << 48) |
                           (uint64_t{ModelHome(key.id) & 0x7fffffff} << 16) |
                           (key.id & 0xffff);
    return static_cast<size_t>(mixed * InverseMod64(kGolden));
  }
};

// The reference: per shard, a recency list (front = most recent) and a map
// from key to its value, charge and list position. Budgets are sliced per
// shard as the cache does; over budget, the coldest max(1, size/8) entries
// go per round, never the entry just touched.
class ReferenceLru {
 public:
  ReferenceLru(size_t num_shards, size_t shard_max_bytes, bool wholesale,
               size_t overhead)
      : shards_(num_shards),
        max_bytes_(shard_max_bytes),
        wholesale_(wholesale),
        overhead_(overhead) {}

  std::optional<int> Get(uint32_t id) {
    Shard& shard = ShardOf(id);
    auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    shard.order.splice(shard.order.begin(), shard.order, it->second.pos);
    return it->second.value;
  }

  void Put(uint32_t id, int value, size_t cost) {
    Shard& shard = ShardOf(id);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      shard.bytes -= it->second.charge;
      shard.order.erase(it->second.pos);
      shard.map.erase(it);
    }
    shard.order.push_front(id);
    shard.map[id] = Entry{value, cost + overhead_, shard.order.begin()};
    shard.bytes += cost + overhead_;
    while (OverBudget(shard) && shard.map.size() > 1) {
      size_t k = std::max<size_t>(1, shard.map.size() / 8);
      if (wholesale_) k = shard.map.size() - 1;
      largest_batch_ = std::max(largest_batch_, k);
      for (size_t i = 0; i < k; ++i) {
        const uint32_t victim = shard.order.back();
        shard.order.pop_back();
        shard.bytes -= shard.map[victim].charge;
        shard.map.erase(victim);
        ++stats_.evictions;
      }
    }
  }

  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (Shard& shard : shards_) {
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (pred(it->first)) {
          shard.bytes -= it->second.charge;
          shard.order.erase(it->second.pos);
          it = shard.map.erase(it);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    stats_.invalidations += erased;
    return erased;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      shard.map.clear();
      shard.order.clear();
      shard.bytes = 0;
    }
  }

  LruCacheStats Stats() const {
    LruCacheStats stats = stats_;
    for (const Shard& shard : shards_) {
      stats.resident_bytes += shard.bytes;
      stats.resident_entries += shard.map.size();
    }
    return stats;
  }

  size_t largest_batch() const { return largest_batch_; }

  std::set<uint32_t> Keys() const {
    std::set<uint32_t> keys;
    for (const Shard& shard : shards_) {
      for (const auto& [id, entry] : shard.map) keys.insert(id);
    }
    return keys;
  }

 private:
  struct Entry {
    int value;
    size_t charge;
    std::list<uint32_t>::iterator pos;
  };
  struct Shard {
    std::list<uint32_t> order;
    std::map<uint32_t, Entry> map;
    size_t bytes = 0;
  };

  Shard& ShardOf(uint32_t id) { return shards_[id % 4 % shards_.size()]; }

  bool OverBudget(const Shard& shard) const {
    return max_bytes_ != 0 && shard.bytes > max_bytes_;
  }

  std::vector<Shard> shards_;
  size_t max_bytes_;
  bool wholesale_;
  size_t overhead_;
  size_t largest_batch_ = 0;
  LruCacheStats stats_;
};

using ModelCache = ShardedLruCache<ModelKey, int, ModelHash>;

void ExpectSameState(ModelCache& cache, const ReferenceLru& reference) {
  const LruCacheStats got = cache.Stats();
  const LruCacheStats want = reference.Stats();
  ASSERT_EQ(got.hits, want.hits);
  ASSERT_EQ(got.misses, want.misses);
  ASSERT_EQ(got.evictions, want.evictions);
  ASSERT_EQ(got.invalidations, want.invalidations);
  ASSERT_EQ(got.resident_entries, want.resident_entries);
  ASSERT_EQ(got.resident_bytes, want.resident_bytes);
  // A sweep that erases nothing lists the resident keys without touching
  // their recency or the counters.
  std::set<uint32_t> resident;
  const size_t erased = cache.EraseIf([&](const ModelKey& key) {
    EXPECT_TRUE(resident.insert(key.id).second) << key.id << " seen twice";
    return false;
  });
  ASSERT_EQ(erased, 0u);
  ASSERT_EQ(resident, reference.Keys());
}

struct ModelConfig {
  size_t num_shards;
  size_t max_bytes;  // 0 = unbounded, as in LruCacheOptions
  bool wholesale;
  uint32_t key_space;
};

TEST(ShardedLruCacheTest, MatchesReferenceLruUnderRandomOperations) {
  const size_t overhead = EntryCharge<ModelKey, int, ModelHash>(0);
  const size_t typical = overhead + 100;
  std::vector<ModelConfig> configs;
  // Unbounded: the tables grow.
  configs.push_back({1, 0, false, 96});
  configs.push_back({4, 0, false, 160});
  // Byte budgets of k typical entries; the larger ones evict batches of
  // up to 5.
  configs.push_back({1, 7 * typical, false, 40});
  configs.push_back({1, 11 * typical, false, 40});
  configs.push_back({4, 24 * typical, false, 60});
  configs.push_back({1, 40 * typical, false, 96});
  configs.push_back({4, 64 * typical, false, 240});
  // Wholesale clear.
  configs.push_back({1, 9 * typical, true, 40});
  configs.push_back({4, 16 * typical, true, 60});
  for (size_t c = 0; c < configs.size(); ++c) {
    const ModelConfig& config = configs[c];
    LruCacheOptions options;
    options.num_shards = config.num_shards;
    options.max_bytes = config.max_bytes;
    options.wholesale_clear = config.wholesale;
    ModelCache cache(options);
    const size_t n = config.num_shards;
    const size_t shard_bytes = (config.max_bytes + n - 1) / n;
    ReferenceLru reference(n, shard_bytes, config.wholesale, overhead);
    Rng rng(1000 + c);
    for (int op = 0; op < 4000; ++op) {
      const uint32_t id =
          static_cast<uint32_t>(rng.NextBounded(config.key_space));
      const uint64_t kind = rng.NextBounded(1000);
      SCOPED_TRACE(::testing::Message() << "config " << c << " op " << op);
      if (kind < 450) {
        const int value = static_cast<int>(rng.NextBounded(1'000'000));
        const size_t cost = 50 + rng.NextBounded(101);
        cache.Put(ModelKey{id}, value, cost);
        reference.Put(id, value, cost);
      } else if (kind < 700) {
        int value = -1;
        const bool hit = cache.Get(ModelKey{id}, &value);
        const std::optional<int> want = reference.Get(id);
        ASSERT_EQ(hit, want.has_value());
        if (hit) {
          ASSERT_EQ(value, *want);
        }
      } else if (kind < 950) {
        // One batched visit of distinct keys is one lookup per key in
        // turn: values, counters, recency and so every later eviction.
        // Mostly a walk step's handful of keys; a quarter of the batches
        // reach past 64 keys, the cache's run of one shard grouping.
        const size_t most = rng.NextBounded(4) == 0
                                ? std::min<size_t>(config.key_space, 80)
                                : 8;
        const size_t count = 1 + rng.NextBounded(most);
        std::vector<ModelKey> keys{ModelKey{id}};
        std::set<uint32_t> chosen{id};
        while (keys.size() < count) {
          const uint32_t other =
              static_cast<uint32_t>(rng.NextBounded(config.key_space));
          if (chosen.insert(other).second) keys.push_back(ModelKey{other});
        }
        // Every value the visit reported, per key.
        std::vector<std::vector<int>> seen(keys.size());
        auto record = [&](size_t i, const int& v) { seen.at(i).push_back(v); };
        const size_t hits =
            cache.VisitEach(std::span<const ModelKey>(keys), record);
        size_t want_hits = 0;
        for (size_t i = 0; i < keys.size(); ++i) {
          const std::optional<int> want = reference.Get(keys[i].id);
          const std::vector<int> expected =
              want ? std::vector<int>{*want} : std::vector<int>{};
          ASSERT_EQ(seen[i], expected) << "key " << keys[i].id;
          want_hits += want.has_value() ? 1 : 0;
        }
        ASSERT_EQ(hits, want_hits);
      } else if (kind < 998) {
        const uint32_t modulus = 2 + static_cast<uint32_t>(rng.NextBounded(5));
        const uint32_t residue = id % modulus;
        auto pred = [&](uint32_t key) { return key % modulus == residue; };
        const size_t got =
            cache.EraseIf([&](const ModelKey& key) { return pred(key.id); });
        ASSERT_EQ(got, reference.EraseIf(pred));
      } else {
        cache.Clear();
        reference.Clear();
      }
      ExpectSameState(cache, reference);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Every budget binds, and the larger ones evict in batches.
    const bool budgeted = config.max_bytes != 0;
    EXPECT_EQ(cache.Stats().evictions > 0, budgeted) << "config " << c;
    const size_t entries_per_shard = config.max_bytes / typical / n;
    if (budgeted && !config.wholesale && entries_per_shard >= 16) {
      EXPECT_GE(reference.largest_batch(), 2u) << "config " << c;
    }
  }
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

  // Again from an empty, unbounded cache over a wider key space: every
  // shard's table grows while readers look it up and a sweeper keeps erasing
  // a rotating residue class (backward shifts under the same locks).
  LruCacheOptions unbounded;
  unbounded.num_shards = 4;
  unbounded.max_bytes = 0;
  ShardedLruCache<int, int> growing(unbounded);
  constexpr int kGrowKeys = 4096;
  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    for (int round = 0; !done.load(std::memory_order_relaxed); ++round) {
      growing.EraseIf([round](int key) { return key % 7 == round % 7; });
    }
  });
  threads.clear();
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x2545f4914f6cdd1dULL * (t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int key = static_cast<int>((state >> 33) % kGrowKeys);
        int value = -1;
        if (!growing.Get(key, &value)) {
          growing.Put(key, key * 3, 8);
        } else if (value != key * 3) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true, std::memory_order_relaxed);
  sweeper.join();
  EXPECT_EQ(bad.load(), 0);
  const LruCacheStats grown = growing.Stats();
  EXPECT_EQ(grown.hits + grown.misses,
            static_cast<size_t>(4) * kOpsPerThread);
  EXPECT_EQ(grown.evictions, 0u);
  EXPECT_LE(grown.resident_entries, static_cast<size_t>(kGrowKeys));
  // Whatever survived the sweeps is still served with its own value.
  for (int key = 0; key < kGrowKeys; ++key) {
    int value = -1;
    if (growing.Get(key, &value)) {
      EXPECT_EQ(value, key * 3) << key;
    }
  }
}

TEST(ShardedLruCacheTest, BatchedVisitsRacePutsAndSweeps) {
  // Readers look up batches of distinct keys spread over every shard and
  // Put their misses, while a writer refreshes keys and a sweeper erases a
  // rotating residue class, all on the same four shards. A budget tight
  // enough to evict keeps backward shifts and regrowth racing the visits.
  // Values are a pure function of the key, so any hit must return f(key).
  LruCacheOptions options;
  options.num_shards = 4;
  options.max_bytes = 16 << 10;
  ShardedLruCache<int, int> cache(options);
  constexpr int kKeys = 2048;
  constexpr int kBatch = 24;
  constexpr int kBatchesPerThread = 2'000;
  std::atomic<int> bad{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int key = 0; !done.load(std::memory_order_relaxed);
         key = (key + 7) % kKeys) {
      cache.Put(key, key * 3, 16);
    }
  });
  std::thread sweeper([&] {
    for (int round = 0; !done.load(std::memory_order_relaxed); ++round) {
      cache.EraseIf([round](int key) { return key % 5 == round % 5; });
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      std::vector<int> keys(kBatch);
      std::vector<uint8_t> hit(kBatch);
      for (int batch = 0; batch < kBatchesPerThread; ++batch) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int base = static_cast<int>((state >> 33) % kKeys);
        // Distinct keys, a stride apart so they scatter over the shards.
        for (int i = 0; i < kBatch; ++i) keys[i] = (base + 37 * i) % kKeys;
        std::fill(hit.begin(), hit.end(), 0);
        auto check = [&](size_t i, const int& value) {
          if (hit[i]++ != 0 || value != keys[i] * 3) bad.fetch_add(1);
        };
        const size_t hits = cache.VisitEach(std::span<const int>(keys), check);
        size_t marked = 0;
        for (int i = 0; i < kBatch; ++i) {
          if (hit[i]) {
            ++marked;
          } else {
            cache.Put(keys[i], keys[i] * 3, 16);
          }
        }
        if (marked != hits) bad.fetch_add(1);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  done.store(true, std::memory_order_relaxed);
  writer.join();
  sweeper.join();
  EXPECT_EQ(bad.load(), 0);
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<size_t>(3) * kBatchesPerThread * kBatch);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

}  // namespace
}  // namespace pcor
