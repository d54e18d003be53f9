#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/common/sharded_lru_cache.h"
#include "src/context/context.h"
#include "src/context/population_index.h"
#include "src/outlier/detector.h"

namespace pcor {

/// \brief Options for the outlier verifier's memo cache.
struct VerifierOptions {
  /// Approximate resident-byte budget for memoized results. The cache
  /// evicts least-recently-used contexts per entry once the budget is
  /// exceeded — it is persistent across batches, never cleared wholesale.
  /// 0 = unbounded.
  size_t max_cache_bytes = size_t{256} << 20;
  /// Cache shards (rounded up to a power of two); 0 = one per hardware
  /// thread. More shards = less mutex contention between sampler threads.
  size_t num_shards = 0;
  /// Ablation mode: reproduce the pre-LRU wholesale clear (drop a whole
  /// shard when it overflows) instead of per-entry eviction. Used by
  /// bench_micro_verifier_cache to measure what LRU buys.
  bool wholesale_clear = false;
  /// Disable memoization entirely (for ablation benchmarks).
  bool enable_cache = true;
};

/// \brief Counter snapshot of the verifier and its cache.
struct VerifierStats {
  size_t evaluations = 0;     ///< full detector runs
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;  ///< entries dropped to satisfy the budget
  /// Entries dropped because their epoch was retired (VerifierMemo::
  /// InvalidateEpochsBefore) — staleness, not capacity pressure. Kept
  /// separate from cache_evictions so a streaming workload can tell "the
  /// budget is too small" from "old epochs are being swept on schedule".
  size_t cache_invalidations = 0;
  size_t resident_bytes = 0;   ///< approximate bytes of memoized results
  size_t resident_entries = 0; ///< memoized contexts currently resident
};

/// \brief Cache key of one memoized f_M result: the context *and* the
/// epoch (sealed-row count) of the dataset view it was computed against.
///
/// The epoch is part of the key, not metadata: a lookup at epoch e can
/// only ever see entries computed at epoch e, so a stale-epoch hit is
/// impossible by construction — there is no code path that could return an
/// old epoch's outlier set for a new epoch's query, racing appends or not.
/// The streaming tests hammer this; see docs/streaming.md.
struct VerifierCacheKey {
  uint64_t epoch = 0;
  ContextVec context;

  bool operator==(const VerifierCacheKey& other) const {
    return epoch == other.epoch && context == other.context;
  }
};

struct VerifierCacheKeyHash {
  size_t operator()(const VerifierCacheKey& key) const {
    // Avalanche the epoch into the context hash so epoch e and e+1 land in
    // unrelated shards (sequential epochs would otherwise collide in the
    // low bits the map consumes).
    return static_cast<size_t>(SplitMix64Mix(
        static_cast<uint64_t>(key.context.Hash()) ^
        (key.epoch + 0x9e3779b97f4a7c15ULL)));
  }
};

/// \brief One memoized f_M result: everything a single detector run over
/// D_C learns. Immutable once cached. The memo holds it by value and reads
/// it under the cache's shard lock, so an entry is one id array and no
/// shared ownership. Row ids are 32-bit, so both counts fit in uint32_t.
struct VerifierEntry {
  std::unique_ptr<uint32_t[]> outliers;  ///< null when nothing is flagged
  uint32_t num_outliers = 0;
  uint32_t population = 0;  ///< |D_C|, set even below min_population

  /// \brief The flagged row ids, ascending.
  std::span<const uint32_t> outlier_ids() const {
    return {outliers.get(), num_outliers};
  }
};

/// \brief The shared, epoch-keyed memo store behind one or more
/// OutlierVerifiers.
///
/// A single-epoch engine owns one implicitly (the classic construction).
/// A streaming engine creates one explicitly and hands it to every
/// per-epoch verifier, so memoized results survive epoch turnover: a
/// sealed epoch's entries keep serving batches still pinned to it, while
/// new-epoch queries miss (different key) and fill their own entries.
///
/// Sharing contract: all verifiers attached to one memo must belong to the
/// same logical stream — epoch ids must identify sealed row prefixes of
/// one dataset lineage, because the key is (epoch, context) and nothing
/// else. Never share a memo between unrelated datasets.
///
/// Thread-safe. Dropping any entry at any time is answer-invariant (pure
/// memo); invalidation is a storage-reclamation policy, not a correctness
/// mechanism — correctness comes from the epoch in the key.
class VerifierMemo {
 public:
  explicit VerifierMemo(const VerifierOptions& options);

  /// \brief Erases every entry whose epoch is strictly below `epoch`,
  /// returning how many were dropped (counted as invalidations, not
  /// evictions). Safe to call while batches pinned to swept epochs are in
  /// flight: their lookups miss and recompute — slower, never wrong. The
  /// streaming engine calls this on seal with its retain-window floor.
  size_t InvalidateEpochsBefore(uint64_t epoch);

  /// \brief Counter snapshot of the underlying cache.
  LruCacheStats CacheStats() const { return cache_.Stats(); }
  /// \brief Full detector evaluations through every attached verifier.
  size_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  friend class OutlierVerifier;

  mutable ShardedLruCache<VerifierCacheKey, VerifierEntry,
                          VerifierCacheKeyHash>
      cache_;
  std::atomic<size_t> evaluations_{0};
};

/// \brief The paper's outlier verification function f_M(D_C, V), memoized.
///
/// Given a context C, the verifier filters the dataset through the
/// population index (into per-thread scratch buffers — zero allocations in
/// steady state), runs the detector on the population's contiguous metric
/// span once, converts flagged positions to row ids, and caches them
/// together with |D_C| — every later f_M(D_C, ·) query on the same context,
/// and the population-size utility that scores it, is a lookup. The
/// graph-search samplers revisit contexts constantly (each vertex has t
/// neighbors), so this memoization is the practical analogue of the paper's
/// precomputed reference file.
///
/// The memo is a ShardedLruCache keyed by (epoch, context): persistent
/// across batches, with real per-entry LRU eviction against an approximate
/// byte budget. One verifier is bound to one epoch — the sealed-row count
/// of the probe it reads — and several verifiers (one per epoch) may share
/// one VerifierMemo; see VerifierMemo for the sharing contract. Eviction
/// is answer-invariant — f_M is deterministic, so dropping an entry can
/// only cost a recomputation, never change a result. Thread-safe; the
/// experiment harness shares one verifier across trial threads.
class OutlierVerifier {
 public:
  /// \brief Classic single-epoch construction: a private memo, with the
  /// epoch defaulting to the probe's row count (so cache keys line up with
  /// a streaming engine sealed at the same prefix).
  OutlierVerifier(const PopulationProbe& index,
                  const OutlierDetector& detector,
                  VerifierOptions options = {});

  /// \brief Streaming construction: memoizes into the shared `memo` under
  /// epoch `epoch`. `memo` must not be null and must follow the
  /// VerifierMemo sharing contract; `options` governs this verifier's
  /// enable_cache flag only (the memo was sized by its own options).
  OutlierVerifier(const PopulationProbe& index,
                  const OutlierDetector& detector,
                  std::shared_ptr<VerifierMemo> memo, uint64_t epoch,
                  VerifierOptions options = {});

  /// \brief f_M(D_C, V): true iff row `v_row` is in D_C *and* the detector
  /// flags it there. Rows outside the population are never outliers in it.
  bool IsOutlierInContext(const ContextVec& c, uint32_t v_row) const;

  /// \brief |D_C| when f_M(D_C, V) holds, std::nullopt otherwise — the
  /// population-size utility in one memo lookup, with no population probe.
  /// A one-context OutlierPopulations call.
  std::optional<size_t> OutlierPopulation(const ContextVec& c,
                                          uint32_t v_row) const;

  /// \brief OutlierPopulation for each of `contexts`, which must be
  /// distinct, into the same position of `populations` (of equal size).
  /// The contexts that contain `v_row` go through one batched memo visit,
  /// which locks each touched shard once; the misses are then computed and
  /// memoized in input order. A graph walk resolves one step's neighbours
  /// this way, with the same verdicts, memo counters and f_M evaluations
  /// as one OutlierPopulation call per context in turn.
  void OutlierPopulations(std::span<const ContextVec> contexts, uint32_t v_row,
                          std::span<std::optional<size_t>> populations) const;

  /// \brief Row ids of all outliers in D_C, ascending: a copy of the memo
  /// entry's ids (tests and benches; releases never call it).
  std::shared_ptr<const std::vector<uint32_t>> OutliersInContext(
      const ContextVec& c) const;

  const PopulationProbe& index() const { return *index_; }
  const OutlierDetector& detector() const { return *detector_; }
  const VerifierOptions& options() const { return options_; }
  /// \brief The epoch this verifier's cache entries are keyed under.
  uint64_t epoch() const { return epoch_; }
  /// \brief The memo store (shared in streaming mode; private otherwise).
  const std::shared_ptr<VerifierMemo>& memo() const { return memo_; }

  /// \brief Number of full detector evaluations performed (cache misses),
  /// summed over every verifier attached to the memo.
  size_t evaluations() const { return memo_->evaluations(); }
  /// \brief Number of cache hits served (lock-free; the release hot path
  /// reads this twice per release).
  size_t cache_hits() const { return memo_->cache_.hits(); }

  /// \brief Full counter snapshot (hits, misses, evictions, invalidations,
  /// resident bytes/entries) for reports and benchmarks.
  VerifierStats Stats() const;

  /// \brief Drops all memoized results (every epoch's, when the memo is
  /// shared). Logically const: the cache is a pure memo, so clearing it
  /// never changes any observable answer. Normal operation never calls
  /// this — the LRU budget and epoch invalidation do the shedding — but
  /// ablations and tests do.
  void ClearCache() const;

 private:
  /// \brief Calls `read(i, entry)` with the memo entry of each of `keys`,
  /// which must be distinct and carry this verifier's epoch: the resident
  /// ones during one batched memo visit, then each miss as it is computed
  /// and memoized, in input order. Without the cache, computes every entry.
  template <typename Read>
  void ReadEntries(std::span<const VerifierCacheKey> keys, Read read) const;
  VerifierEntry Compute(const ContextVec& c) const;

  const PopulationProbe* index_;
  const OutlierDetector* detector_;
  VerifierOptions options_;
  std::shared_ptr<VerifierMemo> memo_;
  uint64_t epoch_ = 0;
};

}  // namespace pcor
