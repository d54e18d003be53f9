#include "src/context/detector_cache.h"

#include <algorithm>
#include <utility>

namespace pcor {

namespace {

LruCacheOptions ToCacheOptions(const VerifierOptions& options) {
  LruCacheOptions cache_options;
  cache_options.max_bytes = options.max_cache_bytes;
  cache_options.max_entries = options.max_cache_entries;
  cache_options.num_shards = options.num_shards;
  cache_options.wholesale_clear = options.wholesale_clear;
  return cache_options;
}

// Approximate footprint of one memoized result: the outlier row ids plus
// the shared_ptr control block. The cache adds its own per-entry overhead
// (key + node + hash-table bookkeeping) on top.
size_t ApproxResultBytes(const std::vector<uint32_t>& outliers) {
  return sizeof(std::vector<uint32_t>) +
         outliers.capacity() * sizeof(uint32_t) + 2 * sizeof(void*);
}

}  // namespace

VerifierMemo::VerifierMemo(const VerifierOptions& options)
    : cache_(ToCacheOptions(options)) {}

size_t VerifierMemo::InvalidateEpochsBefore(uint64_t epoch) {
  return cache_.EraseIf(
      [epoch](const VerifierCacheKey& key) { return key.epoch < epoch; });
}

OutlierVerifier::OutlierVerifier(const PopulationProbe& index,
                                 const OutlierDetector& detector,
                                 VerifierOptions options)
    : OutlierVerifier(index, detector,
                      std::make_shared<VerifierMemo>(options),
                      /*epoch=*/index.num_rows(), options) {}

OutlierVerifier::OutlierVerifier(const PopulationProbe& index,
                                 const OutlierDetector& detector,
                                 std::shared_ptr<VerifierMemo> memo,
                                 uint64_t epoch, VerifierOptions options)
    : index_(&index),
      detector_(&detector),
      options_(options),
      memo_(std::move(memo)),
      epoch_(epoch) {}

bool OutlierVerifier::IsOutlierInContext(const ContextVec& c,
                                         uint32_t v_row) const {
  // Fast precheck: V must belong to D_C at all (one bit test per attribute).
  if (!index_->ContextContainsRow(c, v_row)) return false;
  auto outliers = OutliersInContext(c);
  return std::binary_search(outliers->begin(), outliers->end(), v_row);
}

std::shared_ptr<const std::vector<uint32_t>>
OutlierVerifier::OutliersInContext(const ContextVec& c) const {
  if (!options_.enable_cache) return Compute(c);
  const VerifierCacheKey key{epoch_, c};
  ResultPtr cached;
  if (memo_->cache_.Get(key, &cached)) return cached;
  ResultPtr computed = Compute(c);
  memo_->cache_.Put(key, computed, ApproxResultBytes(*computed));
  return computed;
}

std::shared_ptr<const std::vector<uint32_t>> OutlierVerifier::Compute(
    const ContextVec& c) const {
  memo_->evaluations_.fetch_add(1, std::memory_order_relaxed);
  // Per-thread scratch: a probe in steady state allocates only the result
  // vector it may cache, never population buffers.
  thread_local PopulationScratch scratch;
  thread_local std::vector<size_t> flagged;
  auto result = std::make_shared<std::vector<uint32_t>>();
  const PopulationView view = index_->ViewOf(c, &scratch);
  if (view.size() < detector_->min_population()) return result;
  detector_->Detect(view.metric(), &flagged);
  result->reserve(flagged.size());
  // Detect returns ascending positions; row ids are ascending, so the
  // result is already sorted for binary_search.
  for (size_t pos : flagged) result->push_back(view.row_ids()[pos]);
  return result;
}

VerifierStats OutlierVerifier::Stats() const {
  const LruCacheStats cache_stats = memo_->CacheStats();
  VerifierStats stats;
  stats.evaluations = evaluations();
  stats.cache_hits = cache_stats.hits;
  stats.cache_misses = cache_stats.misses;
  stats.cache_evictions = cache_stats.evictions;
  stats.cache_invalidations = cache_stats.invalidations;
  stats.resident_bytes = cache_stats.resident_bytes;
  stats.resident_entries = cache_stats.resident_entries;
  return stats;
}

void OutlierVerifier::ClearCache() const { memo_->cache_.Clear(); }

}  // namespace pcor
