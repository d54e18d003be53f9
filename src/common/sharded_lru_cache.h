#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/threading.h"

namespace pcor {

/// \brief Tuning knobs for ShardedLruCache.
struct LruCacheOptions {
  /// Approximate resident-byte budget across all shards (caller-supplied
  /// per-entry costs plus a fixed bookkeeping overhead). 0 = unbounded.
  size_t max_bytes = size_t{64} << 20;
  /// Number of shards; rounded up to a power of two. 0 = one shard per
  /// hardware thread (also rounded up), capped at 64; explicit requests
  /// are honored beyond the cap.
  size_t num_shards = 0;
  /// Ablation mode reproducing the pre-LRU behavior: when an insert pushes
  /// a shard over budget, the whole shard is dropped instead of evicting
  /// entries from the cold end. With num_shards = 1 this is exactly the old
  /// single-map wholesale clear.
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
/// N power-of-two shards, each an open-addressing hash table under its own
/// mutex: one slot array holding key and value side by side (for the
/// verifier memo, 48 + 16 B: one cache line), and a parallel metadata array
/// holding each slot's recency tick, charged bytes and a hash tag (0 marks
/// an empty slot). Linear probing compares tags before keys, and erasure
/// shifts the rest of the probe chain back, so there are no tombstones. A
/// hit takes one shard mutex, reads the tags, compares one key and stamps
/// one tick; distinct shards never contend.
///
/// Eviction is exact LRU by tick, in batches: while a shard is over its
/// slice of the byte budget, the coldest max(1, size/8) entries go.
/// Finding them is one O(capacity) pass, amortized O(1) per evicted entry.
/// The entry an insert just touched is never among them. Clear() keeps each
/// shard's capacity, so a cache refilled to the same size does not regrow.
///
/// K and V must be default-constructible and movable; an empty slot holds
/// K{} and V{}. V is returned by copy from Get(), so it should be cheap to
/// copy — a shared_ptr, an index, a small POD — or read in place with
/// Visit(). The cache is a pure memo: dropping any entry at any time must
/// be answer-invariant for the caller.
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(LruCacheOptions options = {})
      : options_(options), shards_(ResolveShardCount(options.num_shards)) {
    const size_t n = shards_.size();
    shard_mask_ = n - 1;
    // Per-shard slice of the global budget (rounded up so tiny budgets
    // still admit at least something per shard).
    shard_max_bytes_ =
        options_.max_bytes == 0 ? 0 : (options_.max_bytes + n - 1) / n;
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
    const uint64_t h = Mix(key);
    Shard& shard = shards_[ShardIndex(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t i = shard.Find(key, TagOf(h));
    if (i == kNotFound) {
      Bump(&shard.misses, 1);
      return false;
    }
    Bump(&shard.hits, 1);
    shard.meta[i].tick = ++shard.clock;
    fn(static_cast<const V&>(shard.slots[i].value));
    return true;
  }

  /// \brief Inserts or refreshes `key`. `cost_bytes` is the caller's
  /// approximation of the value's footprint; the cache adds its own
  /// per-entry bookkeeping overhead before charging the budget.
  void Put(const K& key, V value, size_t cost_bytes) {
    const uint64_t h = Mix(key);
    const uint32_t tag = TagOf(h);
    const uint32_t charge = ChargeFor(cost_bytes);
    Shard& shard = shards_[ShardIndex(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t i = shard.Find(key, tag);
    if (i != kNotFound) {
      shard.bytes = shard.bytes - shard.meta[i].charge + charge;
      shard.slots[i].value = std::move(value);
      shard.meta[i].charge = charge;
      shard.meta[i].tick = ++shard.clock;
    } else {
      shard.ReserveForInsert();
      i = shard.Insert(key, std::move(value), tag, charge);
    }
    EnforceBudget(&shard, i);
  }

  /// \brief Erases every resident entry whose key satisfies `pred`,
  /// returning how many were dropped. Counted as *invalidations*, never as
  /// evictions: evictions are capacity pressure shedding still-valid memo
  /// entries, while an EraseIf sweep removes entries the caller has
  /// declared stale (e.g. superseded epochs) — the two must stay
  /// distinguishable in the stats or cache-pressure telemetry lies.
  /// `pred` sees each resident key once. Locks one shard at a time;
  /// concurrent Get/Put on other shards proceed, and an entry inserted into
  /// an already-swept shard during the walk survives (callers invalidating
  /// by epoch must therefore sweep only epochs no writer produces anymore).
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      const size_t n = shard.EraseWhere([&](size_t i) {
        return pred(static_cast<const K&>(shard.slots[i].key));
      });
      Bump(&shard.invalidations, n);
      erased += n;
    }
    return erased;
  }

  /// \brief Drops every entry (not counted as evictions). Each shard keeps
  /// its table capacity.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.Reset();
    }
  }

  LruCacheStats Stats() const {
    LruCacheStats stats;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.hits += shard.hits.load(std::memory_order_relaxed);
      stats.misses += shard.misses.load(std::memory_order_relaxed);
      stats.evictions += shard.evictions.load(std::memory_order_relaxed);
      stats.invalidations +=
          shard.invalidations.load(std::memory_order_relaxed);
      stats.resident_bytes += shard.bytes;
      stats.resident_entries += shard.size;
    }
    return stats;
  }

  /// \brief Lock-free counter reads for hot-path callers that only need
  /// one number (Stats() locks every shard to sum residency).
  size_t hits() const { return Sum(&Shard::hits); }
  size_t misses() const { return Sum(&Shard::misses); }
  size_t evictions() const { return Sum(&Shard::evictions); }
  size_t invalidations() const { return Sum(&Shard::invalidations); }

  size_t num_shards() const { return shards_.size(); }
  const LruCacheOptions& options() const { return options_; }

 private:
  static constexpr size_t kNotFound = std::numeric_limits<size_t>::max();
  // An occupied slot's tag has this bit set; the low bits pick its home
  // slot, so a table holds at most 2^31 slots.
  static constexpr uint32_t kOccupied = 0x80000000u;
  static constexpr size_t kMinCapacity = 16;

  // A slot the size of a cache line is aligned to one, so a hit reads one
  // line of keys and values.
  static constexpr size_t kSlotAlign =
      (sizeof(K) + sizeof(V)) % 64 == 0 ? 64 : alignof(std::pair<K, V>);
  struct alignas(kSlotAlign) Slot {
    K key{};
    V value{};
  };
  struct Meta {
    uint64_t tick = 0;    ///< shard clock at the last touch; larger = hotter
    uint32_t charge = 0;  ///< bytes charged to the budget
    uint32_t tag = 0;     ///< kOccupied | hash bits; 0 = empty
  };

  // Beyond the caller's value cost, every resident entry pays for its slot
  // and metadata, plus the free share that keeps the table at most 7/8
  // full (about 2/3 on average between doublings).
  static constexpr size_t kEntryOverhead =
      (sizeof(Slot) + sizeof(Meta)) * 3 / 2;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    uint64_t clock = 0;
    size_t size = 0;
    size_t bytes = 0;
    size_t mask = 0;  ///< capacity - 1; meaningless while capacity is 0
    std::vector<Slot> slots;
    std::vector<Meta> meta;
    // Written only under `mu`; atomic so the lock-free readers above may
    // sum them while writers run.
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
    std::atomic<size_t> evictions{0};
    std::atomic<size_t> invalidations{0};

    size_t Find(const K& key, uint32_t tag) const {
      if (size == 0) return kNotFound;
      for (size_t i = tag & mask;; i = (i + 1) & mask) {
        const uint32_t t = meta[i].tag;
        if (t == 0) return kNotFound;
        if (t == tag && slots[i].key == key) return i;
      }
    }

    /// Grows (doubling, rehashing every entry) so one more entry keeps the
    /// load at most 7/8.
    void ReserveForInsert() {
      const size_t capacity = meta.size();
      if ((size + 1) * 8 <= capacity * 7) return;
      const size_t grown = std::max(kMinCapacity, capacity * 2);
      std::vector<Slot> old_slots =
          std::exchange(slots, std::vector<Slot>(grown));
      std::vector<Meta> old_meta =
          std::exchange(meta, std::vector<Meta>(grown));
      mask = grown - 1;
      for (size_t i = 0; i < old_meta.size(); ++i) {
        if (old_meta[i].tag == 0) continue;
        const size_t j = FreeSlotFor(old_meta[i].tag);
        slots[j] = std::move(old_slots[i]);
        meta[j] = old_meta[i];
      }
    }

    size_t FreeSlotFor(uint32_t tag) const {
      size_t i = tag & mask;
      while (meta[i].tag != 0) i = (i + 1) & mask;
      return i;
    }

    /// Inserts an absent key; the caller reserved room.
    size_t Insert(const K& key, V value, uint32_t tag, uint32_t charge) {
      const size_t i = FreeSlotFor(tag);
      slots[i].key = key;
      slots[i].value = std::move(value);
      meta[i] = Meta{++clock, charge, tag};
      ++size;
      bytes += charge;
      return i;
    }

    /// Empties every slot, keeping the capacity.
    void Reset() {
      for (size_t i = 0; size > 0 && i < meta.size(); ++i) {
        if (meta[i].tag == 0) continue;
        slots[i] = Slot{};
        meta[i] = Meta{};
        --size;
      }
      bytes = 0;
    }

    /// Empties slot `i` and shifts the rest of its probe chain back: each
    /// later entry whose home slot lies at or before the hole (cyclically)
    /// moves into it, so no lookup ever probes past an empty slot it
    /// should not stop at.
    void EraseAt(size_t i) {
      bytes -= meta[i].charge;
      --size;
      size_t hole = i;
      for (size_t j = (i + 1) & mask; meta[j].tag != 0; j = (j + 1) & mask) {
        const size_t home = meta[j].tag & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
          slots[hole] = std::move(slots[j]);
          meta[hole] = meta[j];
          hole = j;
        }
      }
      slots[hole] = Slot{};
      meta[hole] = Meta{};
    }

    /// Erases every occupied slot `i` with `pred(i)`, returning how many.
    /// The walk starts just past an empty slot, so no probe chain wraps
    /// across its start: a backward shift only moves entries the walk has
    /// not reached yet, and `pred` sees each entry once.
    template <typename Pred>
    size_t EraseWhere(Pred pred) {
      if (size == 0) return 0;
      const size_t capacity = meta.size();
      size_t start = 0;
      while (meta[start].tag != 0) ++start;
      size_t erased = 0;
      for (size_t step = 1; step < capacity;) {
        const size_t i = (start + step) & mask;
        if (meta[i].tag != 0 && pred(i)) {
          EraseAt(i);  // the next chain entry may now sit at i: look again
          ++erased;
        } else {
          ++step;
        }
      }
      return erased;
    }
  };

  static uint32_t ChargeFor(size_t cost_bytes) {
    // Saturates: a single value of 4 GiB overflows any budget anyway.
    const size_t charged = std::min<size_t>(
        cost_bytes, std::numeric_limits<uint32_t>::max() - kEntryOverhead);
    return static_cast<uint32_t>(charged + kEntryOverhead);
  }

  // Increments a counter only its shard's lock holder writes: a plain
  // load-and-store, no read-modify-write.
  static void Bump(std::atomic<size_t>* counter, size_t n) {
    counter->store(counter->load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
  }

  size_t Sum(std::atomic<size_t> Shard::*counter) const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      total += (shard.*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  static size_t ResolveShardCount(size_t requested) {
    size_t n = requested;
    if (n == 0) {
      // Auto: one shard per hardware thread, capped — explicit requests
      // are honored beyond the cap.
      n = std::min<size_t>(DefaultThreadCount(), 64);
    }
    size_t pow2 = 1;
    while (pow2 < n) pow2 <<= 1;
    return pow2;
  }

  // One multiplicative mix of the key's hash: the shard comes from its top
  // bits, the tag (and with it the home slot) from bits 16..46, so the two
  // partitions stay independent even for weak hashes.
  static uint64_t Mix(const K& key) {
    return static_cast<uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
  }
  size_t ShardIndex(uint64_t h) const { return (h >> 48) & shard_mask_; }
  static uint32_t TagOf(uint64_t h) {
    return static_cast<uint32_t>(h >> 16) | kOccupied;
  }

  bool OverBudget(const Shard& shard) const {
    return shard_max_bytes_ != 0 && shard.bytes > shard_max_bytes_;
  }

  /// Brings `shard` back under budget after a Put that touched slot
  /// `touched`, which always survives: a single value larger than the
  /// shard budget still has to be servable right after its own insert.
  void EnforceBudget(Shard* shard, size_t touched) {
    if (!OverBudget(*shard) || shard->size < 2) return;
    if (options_.wholesale_clear) {
      // Pre-LRU semantics: drop everything except the entry just touched
      // (the old single-map code cleared, then inserted the new result).
      Slot keep = std::move(shard->slots[touched]);
      const Meta keep_meta = shard->meta[touched];
      Bump(&shard->evictions, shard->size - 1);
      shard->Reset();
      shard->Insert(keep.key, std::move(keep.value), keep_meta.tag,
                    keep_meta.charge);
      return;
    }
    std::vector<uint64_t> ticks;
    while (OverBudget(*shard) && shard->size > 1) {
      // The batch's k coldest ticks; ticks are unique per shard, so exactly
      // k entries are at or below the cutoff, and the touched entry (the
      // hottest) is not one of them since k < size.
      const size_t k = std::max<size_t>(1, shard->size / 8);
      ticks.clear();
      for (const Meta& m : shard->meta) {
        if (m.tag != 0) ticks.push_back(m.tick);
      }
      std::nth_element(ticks.begin(), ticks.begin() + (k - 1), ticks.end());
      const uint64_t cutoff = ticks[k - 1];
      const size_t evicted = shard->EraseWhere(
          [&](size_t i) { return shard->meta[i].tick <= cutoff; });
      Bump(&shard->evictions, evicted);
    }
  }

  LruCacheOptions options_;
  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t shard_max_bytes_ = 0;
};

}  // namespace pcor
