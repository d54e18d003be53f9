#include "src/context/detector_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

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
void OutlierVerifier::ReadEntries(std::span<const VerifierCacheKey> keys,
                                  Read read) const {
  if (!options_.enable_cache) {
    for (size_t i = 0; i < keys.size(); ++i) read(i, Compute(keys[i].context));
    return;
  }
  thread_local std::vector<uint8_t> resident;
  resident.assign(keys.size(), 0);
  const size_t hits = memo_->cache_.VisitEach(
      keys, [&](size_t i, const VerifierEntry& entry) {
        resident[i] = 1;
        read(i, entry);
      });
  for (size_t i = 0; hits < keys.size() && i < keys.size(); ++i) {
    if (resident[i]) continue;
    VerifierEntry computed = Compute(keys[i].context);
    read(i, computed);
    const size_t bytes = ApproxResultBytes(computed);
    memo_->cache_.Put(keys[i], std::move(computed), bytes);
  }
}

bool OutlierVerifier::IsOutlierInContext(const ContextVec& c,
                                         uint32_t v_row) const {
  return OutlierPopulation(c, v_row).has_value();
}

std::optional<size_t> OutlierVerifier::OutlierPopulation(
    const ContextVec& c, uint32_t v_row) const {
  std::optional<size_t> population;
  OutlierPopulations(std::span<const ContextVec>(&c, 1), v_row,
                     std::span<std::optional<size_t>>(&population, 1));
  return population;
}

void OutlierVerifier::OutlierPopulations(
    std::span<const ContextVec> contexts, uint32_t v_row,
    std::span<std::optional<size_t>> populations) const {
  PCOR_CHECK(populations.size() == contexts.size())
      << "OutlierPopulations needs one output per context";
  // f_M contract: a row outside D_C is never an outlier in it. D_C holds
  // the row iff C covers the row's exact context, a few word tests per
  // context; the others never reach the memo. keys[k] answers
  // populations[at[k]].
  const ContextVec v_exact = index_->ExactContextOf(v_row);
  thread_local std::vector<VerifierCacheKey> keys;
  thread_local std::vector<size_t> at;
  keys.clear();
  at.clear();
  for (size_t i = 0; i < contexts.size(); ++i) {
    populations[i] = std::nullopt;
    if (!contexts[i].Covers(v_exact)) continue;
    keys.push_back(VerifierCacheKey{epoch_, contexts[i]});
    at.push_back(i);
  }
  ReadEntries(keys, [&](size_t k, const VerifierEntry& entry) {
    const std::span<const uint32_t> ids = entry.outlier_ids();
    if (std::binary_search(ids.begin(), ids.end(), v_row)) {
      populations[at[k]] = entry.population;
    }
  });
}

std::shared_ptr<const std::vector<uint32_t>>
OutlierVerifier::OutliersInContext(const ContextVec& c) const {
  const VerifierCacheKey key{epoch_, c};
  std::shared_ptr<const std::vector<uint32_t>> outliers;
  ReadEntries(std::span<const VerifierCacheKey>(&key, 1),
              [&](size_t, const VerifierEntry& entry) {
                const std::span<const uint32_t> ids = entry.outlier_ids();
                outliers = std::make_shared<const std::vector<uint32_t>>(
                    ids.begin(), ids.end());
              });
  return outliers;
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
