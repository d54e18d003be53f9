#include "src/context/detector_cache.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace pcor {

namespace {

LruCacheOptions ToCacheOptions(const VerifierOptions& options) {
  LruCacheOptions cache_options;
  cache_options.max_bytes = options.max_cache_bytes;
  cache_options.num_shards = options.num_shards;
  cache_options.wholesale_clear = options.wholesale_clear;
  return cache_options;
}

// Approximate heap footprint of one memoized result beyond its cache node
// (which holds the entry itself and is charged by the cache): the id array.
size_t ApproxResultBytes(const VerifierEntry& entry) {
  return entry.num_outliers * sizeof(uint32_t);
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

template <typename Read>
auto OutlierVerifier::ReadEntry(const ContextVec& c, Read read) const {
  if (!options_.enable_cache) return read(Compute(c));
  const VerifierCacheKey key{epoch_, c};
  std::invoke_result_t<Read&, const VerifierEntry&> result{};
  if (memo_->cache_.Visit(
          key, [&](const VerifierEntry& entry) { result = read(entry); })) {
    return result;
  }
  VerifierEntry computed = Compute(c);
  result = read(computed);
  const size_t bytes = ApproxResultBytes(computed);
  memo_->cache_.Put(key, std::move(computed), bytes);
  return result;
}

bool OutlierVerifier::IsOutlierInContext(const ContextVec& c,
                                         uint32_t v_row) const {
  return OutlierPopulation(c, v_row).has_value();
}

std::optional<size_t> OutlierVerifier::OutlierPopulation(
    const ContextVec& c, uint32_t v_row) const {
  // Fast precheck: V must belong to D_C at all (one bit test per attribute).
  if (!index_->ContextContainsRow(c, v_row)) return std::nullopt;
  return ReadEntry(c, [v_row](const VerifierEntry& entry) {
    const std::span<const uint32_t> ids = entry.outlier_ids();
    return std::binary_search(ids.begin(), ids.end(), v_row)
               ? std::optional<size_t>(entry.population)
               : std::nullopt;
  });
}

std::shared_ptr<const std::vector<uint32_t>>
OutlierVerifier::OutliersInContext(const ContextVec& c) const {
  return ReadEntry(c, [](const VerifierEntry& entry) {
    const std::span<const uint32_t> ids = entry.outlier_ids();
    return std::make_shared<const std::vector<uint32_t>>(ids.begin(),
                                                         ids.end());
  });
}

VerifierEntry OutlierVerifier::Compute(const ContextVec& c) const {
  memo_->evaluations_.fetch_add(1, std::memory_order_relaxed);
  // Per-thread scratch: a probe in steady state allocates only the id
  // array it may cache, never population buffers.
  thread_local PopulationScratch scratch;
  thread_local std::vector<size_t> flagged;
  const PopulationView view = index_->ViewOf(c, &scratch);
  VerifierEntry entry;
  // |D_C| is kept below min_population too: the entry is always complete.
  entry.population = static_cast<uint32_t>(view.size());
  if (view.size() < detector_->min_population()) return entry;
  detector_->Detect(view.metric(), &flagged);
  if (flagged.empty()) return entry;
  entry.num_outliers = static_cast<uint32_t>(flagged.size());
  entry.outliers = std::make_unique_for_overwrite<uint32_t[]>(flagged.size());
  // Detect returns ascending positions; row ids are ascending, so the ids
  // are already sorted for binary_search.
  for (size_t i = 0; i < flagged.size(); ++i) {
    entry.outliers[i] = view.row_ids()[flagged[i]];
  }
  return entry;
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
