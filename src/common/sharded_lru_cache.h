#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pcor {

/// \brief Tuning knobs for ShardedLruCache.
struct LruCacheOptions {
  /// Approximate resident-byte budget across all shards (caller-supplied
  /// per-entry costs plus a fixed bookkeeping overhead). 0 = unbounded.
  size_t max_bytes = size_t{64} << 20;
  /// Upper bound on resident entries across all shards. 0 = unbounded.
  size_t max_entries = 0;
  /// Number of shards; rounded up to a power of two. 0 = one shard per
  /// hardware thread (also rounded up), capped at 64; explicit requests
  /// are honored beyond the cap.
  size_t num_shards = 0;
  /// Ablation mode reproducing the pre-LRU behavior: when an insert pushes
  /// a shard over budget, the whole shard is dropped instead of evicting
  /// entries one by one from the cold end. With num_shards = 1 this is
  /// exactly the old single-map wholesale clear.
  bool wholesale_clear = false;
};

/// \brief Counter snapshot; taken with Stats() (locks each shard briefly).
struct LruCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;       ///< entries dropped to satisfy a budget
  size_t invalidations = 0;   ///< entries dropped by EraseIf (staleness)
  size_t resident_bytes = 0;  ///< approximate bytes currently cached
  size_t resident_entries = 0;
};

/// \brief Thread-safe LRU cache sharded by key hash.
///
/// N power-of-two shards, each a hash map plus an intrusive doubly-linked
/// recency list threaded through the map's nodes (unordered_map guarantees
/// pointer stability of elements, so the links never dangle across
/// rehashes). A lookup takes exactly one shard mutex; distinct shards never
/// contend. Eviction walks the cold end of the per-shard list until the
/// shard is back under its slice of the byte/entry budgets.
///
/// V is returned by copy from Get(), so it should be cheap to copy — a
/// shared_ptr, an index, a small POD. The cache is a pure memo: dropping
/// any entry at any time must be answer-invariant for the caller.
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(LruCacheOptions options = {})
      : options_(options), shards_(ResolveShardCount(options.num_shards)) {
    const size_t n = shards_.size();
    shard_mask_ = n - 1;
    // Per-shard slices of the global budgets (rounded up so tiny budgets
    // still admit at least something per shard).
    shard_max_bytes_ =
        options_.max_bytes == 0 ? 0 : (options_.max_bytes + n - 1) / n;
    shard_max_entries_ =
        options_.max_entries == 0 ? 0 : (options_.max_entries + n - 1) / n;
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// \brief Looks up `key`; on a hit copies the value into `*value`,
  /// refreshes the entry's recency, and returns true.
  bool Get(const K& key, V* value) {
    return Visit(key, [value](const V& cached) { *value = cached; });
  }

  /// \brief Like Get, but calls `fn(const V&)` on the resident value under
  /// the shard lock instead of copying it out — for values that are large
  /// or move-only. `fn` must not touch this cache.
  template <typename Fn>
  bool Visit(const K& key, Fn&& fn) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    MoveToFront(&shard, &it->second);
    fn(static_cast<const V&>(it->second.value));
    return true;
  }

  /// \brief Inserts or refreshes `key`. `cost_bytes` is the caller's
  /// approximation of the value's footprint; the cache adds its own
  /// per-entry bookkeeping overhead before charging the budget.
  void Put(const K& key, V value, size_t cost_bytes) {
    const size_t charged = cost_bytes + kEntryOverhead;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.bytes += charged - it->second.charged_bytes;
      it->second.value = std::move(value);
      it->second.charged_bytes = charged;
      MoveToFront(&shard, &it->second);
    } else {
      auto [ins, inserted] = shard.map.try_emplace(key);
      Node& node = ins->second;
      node.key = &ins->first;
      node.value = std::move(value);
      node.charged_bytes = charged;
      LinkFront(&shard, &node);
      shard.bytes += charged;
    }
    EnforceBudget(&shard);
  }

  /// \brief Erases every resident entry whose key satisfies `pred`,
  /// returning how many were dropped. Counted as *invalidations*, never as
  /// evictions: evictions are capacity pressure shedding still-valid memo
  /// entries, while an EraseIf sweep removes entries the caller has
  /// declared stale (e.g. superseded epochs) — the two must stay
  /// distinguishable in the stats or cache-pressure telemetry lies.
  /// Locks one shard at a time; concurrent Get/Put on other shards
  /// proceed, and an entry inserted into an already-swept shard during the
  /// walk survives (callers invalidating by epoch must therefore sweep
  /// only epochs no writer produces anymore).
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (pred(it->first)) {
          Node* node = &it->second;
          Unlink(&shard, node);
          shard.bytes -= node->charged_bytes;
          it = shard.map.erase(it);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    invalidations_.fetch_add(erased, std::memory_order_relaxed);
    return erased;
  }

  /// \brief Drops every entry (not counted as evictions).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.mru = shard.lru = nullptr;
      shard.bytes = 0;
    }
  }

  LruCacheStats Stats() const {
    LruCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.invalidations = invalidations_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.resident_bytes += shard.bytes;
      stats.resident_entries += shard.map.size();
    }
    return stats;
  }

  /// \brief Lock-free counter reads for hot-path callers that only need
  /// one number (Stats() locks every shard to sum residency).
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  size_t num_shards() const { return shards_.size(); }
  const LruCacheOptions& options() const { return options_; }

 private:
  struct Node {
    const K* key = nullptr;  ///< points at the owning map entry's key
    V value{};
    size_t charged_bytes = 0;
    Node* prev = nullptr;  ///< toward MRU
    Node* next = nullptr;  ///< toward LRU
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<K, Node, Hash> map;
    Node* mru = nullptr;
    Node* lru = nullptr;
    size_t bytes = 0;
  };

  // Beyond the caller's value cost, every resident entry pays for a map
  // node (key + Node) plus hash-table control structures.
  static constexpr size_t kEntryOverhead =
      sizeof(K) + sizeof(Node) + 4 * sizeof(void*);

  static size_t ResolveShardCount(size_t requested) {
    size_t n = requested;
    if (n == 0) {
      // Auto: one shard per hardware thread, capped — explicit requests
      // are honored beyond the cap.
      n = static_cast<size_t>(std::thread::hardware_concurrency());
      if (n == 0) n = 1;
      if (n > 64) n = 64;
    }
    size_t pow2 = 1;
    while (pow2 < n) pow2 <<= 1;
    return pow2;
  }

  Shard& ShardFor(const K& key) {
    // unordered_map consumes the low bits of the same hash, so pick the
    // shard from well-mixed high bits to keep the two partitions
    // independent even for weak hashes.
    const uint64_t h =
        static_cast<uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return shards_[(h >> 48) & shard_mask_];
  }

  void LinkFront(Shard* shard, Node* node) {
    node->prev = nullptr;
    node->next = shard->mru;
    if (shard->mru != nullptr) shard->mru->prev = node;
    shard->mru = node;
    if (shard->lru == nullptr) shard->lru = node;
  }

  void Unlink(Shard* shard, Node* node) {
    if (node->prev != nullptr) {
      node->prev->next = node->next;
    } else {
      shard->mru = node->next;
    }
    if (node->next != nullptr) {
      node->next->prev = node->prev;
    } else {
      shard->lru = node->prev;
    }
    node->prev = node->next = nullptr;
  }

  void MoveToFront(Shard* shard, Node* node) {
    if (shard->mru == node) return;
    Unlink(shard, node);
    LinkFront(shard, node);
  }

  bool OverBudget(const Shard& shard) const {
    if (shard_max_bytes_ != 0 && shard.bytes > shard_max_bytes_) return true;
    if (shard_max_entries_ != 0 && shard.map.size() > shard_max_entries_) {
      return true;
    }
    return false;
  }

  void EnforceBudget(Shard* shard) {
    if (!OverBudget(*shard)) return;
    if (options_.wholesale_clear) {
      // Pre-LRU semantics: drop everything except the entry just touched
      // (the old single-map code cleared, then inserted the new result).
      Node* keep = shard->mru;
      if (keep == nullptr) return;
      const size_t dropped = shard->map.size() - 1;
      if (dropped == 0) return;
      K key = *keep->key;
      Node survivor = std::move(*keep);
      shard->map.clear();
      shard->mru = shard->lru = nullptr;
      shard->bytes = 0;
      auto [ins, inserted] = shard->map.try_emplace(std::move(key));
      ins->second.value = std::move(survivor.value);
      ins->second.charged_bytes = survivor.charged_bytes;
      ins->second.key = &ins->first;
      LinkFront(shard, &ins->second);
      shard->bytes = survivor.charged_bytes;
      evictions_.fetch_add(dropped, std::memory_order_relaxed);
      return;
    }
    // Real per-entry eviction from the cold end. Never evict the MRU entry:
    // a single value larger than the shard budget still has to be servable
    // right after its own insert.
    while (OverBudget(*shard) && shard->lru != nullptr &&
           shard->lru != shard->mru) {
      Node* victim = shard->lru;
      Unlink(shard, victim);
      shard->bytes -= victim->charged_bytes;
      // find() only reads the key before the node dies, and erasing by
      // iterator neither copies nor re-hashes it — this is the hottest
      // path under memory pressure.
      shard->map.erase(shard->map.find(*victim->key));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  LruCacheOptions options_;
  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t shard_max_bytes_ = 0;
  size_t shard_max_entries_ = 0;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> invalidations_{0};
};

}  // namespace pcor
