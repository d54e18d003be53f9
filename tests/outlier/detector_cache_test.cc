#include "src/context/detector_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "src/common/threading.h"
#include "src/search/pcor.h"
#include "src/search/streaming.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        index_(grid_.dataset),
        detector_(testing_util::MakeTestDetector()) {}

  ContextVec FullCtx() const {
    return context_ops::FullContext(grid_.dataset.schema());
  }

  testing_util::GridData grid_;
  PopulationIndex index_;
  ZscoreDetector detector_;
};

TEST_F(VerifierTest, AgreesWithDirectDetectorRun) {
  OutlierVerifier verifier(index_, detector_);
  ContextVec full = FullCtx();
  auto metric = index_.MetricOf(full);
  auto rows = index_.RowIdsOf(full);
  auto direct = detector_.Detect(metric);
  auto cached = verifier.OutliersInContext(full);
  ASSERT_EQ(cached->size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ((*cached)[i], rows[direct[i]]);
  }
}

TEST_F(VerifierTest, MemoizesRepeatedQueries) {
  OutlierVerifier verifier(index_, detector_);
  ContextVec full = FullCtx();
  verifier.OutliersInContext(full);
  EXPECT_EQ(verifier.evaluations(), 1u);
  verifier.OutliersInContext(full);
  verifier.OutliersInContext(full);
  EXPECT_EQ(verifier.evaluations(), 1u);
  EXPECT_EQ(verifier.cache_hits(), 2u);
}

TEST_F(VerifierTest, RowOutsidePopulationIsNeverAnOutlier) {
  OutlierVerifier verifier(index_, detector_);
  ContextVec c(grid_.dataset.schema().total_values());
  c.Set(1);  // a1
  c.Set(4);  // b1
  // V = (a0, b0) is not in this context; the fast path must not even run
  // the detector.
  EXPECT_FALSE(verifier.IsOutlierInContext(c, grid_.v_row));
  EXPECT_EQ(verifier.evaluations(), 0u);
}

TEST_F(VerifierTest, ClearCacheForcesRecomputation) {
  OutlierVerifier verifier(index_, detector_);
  verifier.OutliersInContext(FullCtx());
  verifier.ClearCache();
  verifier.OutliersInContext(FullCtx());
  EXPECT_EQ(verifier.evaluations(), 2u);
}

TEST_F(VerifierTest, CacheDisableAlwaysRecomputes) {
  VerifierOptions options;
  options.enable_cache = false;
  OutlierVerifier verifier(index_, detector_, options);
  verifier.OutliersInContext(FullCtx());
  verifier.OutliersInContext(FullCtx());
  EXPECT_EQ(verifier.evaluations(), 2u);
  EXPECT_EQ(verifier.cache_hits(), 0u);
}

TEST_F(VerifierTest, EntryBudgetEvictsLruButStaysCorrect) {
  // A byte budget of 4 entries: 4 times the smallest charge any queried
  // context takes in an unbounded memo, so at most 4 stay resident.
  const size_t t = grid_.dataset.schema().total_values();
  size_t smallest_charge = SIZE_MAX;
  {
    VerifierOptions unbounded;
    unbounded.max_cache_bytes = 0;
    unbounded.num_shards = 1;
    OutlierVerifier sizer(index_, detector_, unbounded);
    for (size_t bit = 0; bit < t; ++bit) {
      ContextVec c = FullCtx();
      c.Clear(bit);
      const size_t before = sizer.Stats().resident_bytes;
      sizer.OutliersInContext(c);
      smallest_charge =
          std::min(smallest_charge, sizer.Stats().resident_bytes - before);
    }
  }
  VerifierOptions options;
  options.max_cache_bytes = 4 * smallest_charge;
  options.num_shards = 1;
  OutlierVerifier verifier(index_, detector_, options);
  // Query more distinct contexts than the budget holds: the cold end is
  // evicted in batches, never the whole cache.
  for (size_t bit = 0; bit < t; ++bit) {
    ContextVec c = FullCtx();
    c.Clear(bit);
    verifier.OutliersInContext(c);
  }
  const VerifierStats stats = verifier.Stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.resident_entries, 4u);
  // Still answers correctly afterwards: agree with an uncached verifier.
  VerifierOptions no_cache;
  no_cache.enable_cache = false;
  OutlierVerifier fresh(index_, detector_, no_cache);
  EXPECT_EQ(*verifier.OutliersInContext(FullCtx()),
            *fresh.OutliersInContext(FullCtx()));
}

TEST_F(VerifierTest, StatsSnapshotTracksResidency) {
  OutlierVerifier verifier(index_, detector_);
  verifier.OutliersInContext(FullCtx());
  verifier.OutliersInContext(FullCtx());
  const VerifierStats stats = verifier.Stats();
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  verifier.ClearCache();
  EXPECT_EQ(verifier.Stats().resident_entries, 0u);
  EXPECT_EQ(verifier.Stats().resident_bytes, 0u);
}

TEST_F(VerifierTest, HammerAllCachePoliciesAgree) {
  // Satellite coverage: one deterministic probe mix answered by four
  // verifiers — cache disabled, wholesale-clear ablation, a tiny LRU budget
  // that forces constant eviction, and the default — must be identical
  // under 8-way concurrent hammering.
  VerifierOptions no_cache;
  no_cache.enable_cache = false;
  OutlierVerifier uncached(index_, detector_, no_cache);

  VerifierOptions wholesale;
  wholesale.wholesale_clear = true;
  wholesale.max_cache_bytes = 2048;
  wholesale.num_shards = 1;
  OutlierVerifier clearing(index_, detector_, wholesale);

  VerifierOptions tiny_lru;
  tiny_lru.max_cache_bytes = 1024;
  tiny_lru.num_shards = 2;
  OutlierVerifier evicting(index_, detector_, tiny_lru);

  OutlierVerifier roomy(index_, detector_);

  // All 2^t subsets of the full context, visited repeatedly from all
  // threads so entries are hammered while being evicted.
  const size_t t = grid_.dataset.schema().total_values();
  const size_t num_contexts = size_t{1} << t;
  std::atomic<size_t> mismatches{0};
  ThreadPool pool(7);  // plus the caller: 8 threads
  pool.ParallelFor(num_contexts * 4, 0, [&](size_t i) {
    ContextVec c(t);
    const size_t bits = i % num_contexts;
    for (size_t bit = 0; bit < t; ++bit) {
      if ((bits >> bit) & 1) c.Set(bit);
    }
    const auto expected = uncached.OutliersInContext(c);
    if (*clearing.OutliersInContext(c) != *expected ||
        *evicting.OutliersInContext(c) != *expected ||
        *roomy.OutliersInContext(c) != *expected) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  // The tiny budget must actually have been under pressure.
  EXPECT_GT(evicting.Stats().cache_evictions, 0u);
  EXPECT_GT(clearing.Stats().cache_evictions, 0u);
}

TEST_F(VerifierTest, SmallPopulationGatedByDetectorMinPopulation) {
  OutlierVerifier verifier(index_, detector_);
  // A context with an empty attribute has population 0 — below any
  // detector's min_population — and must report no outliers.
  ContextVec c(grid_.dataset.schema().total_values());
  c.Set(0);
  auto outliers = verifier.OutliersInContext(c);  // population 0
  EXPECT_TRUE(outliers->empty());
}

TEST_F(VerifierTest, ConcurrentQueriesAreConsistent) {
  OutlierVerifier verifier(index_, detector_);
  const auto expected = *verifier.OutliersInContext(FullCtx());
  std::atomic<bool> mismatch{false};
  ThreadPool pool(7);  // plus the caller: 8 threads
  pool.ParallelFor(64, 0, [&](size_t i) {
    ContextVec c = FullCtx();
    if (i % 2 == 0) c.Clear(i % c.num_bits());
    auto result = verifier.OutliersInContext(FullCtx());
    if (*result != expected) mismatch.store(true);
    verifier.IsOutlierInContext(c, grid_.v_row);
  });
  EXPECT_FALSE(mismatch.load());
}

// The engine shares one verifier across all Release() calls; these tests
// cover that cache under real concurrent releases (the ReleaseBatch
// fan-out path) rather than bare verifier queries.

TEST_F(VerifierTest, ConcurrentReleasesThroughSharedCacheAreDeterministic) {
  PcorEngine engine(grid_.dataset, detector_);
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;

  // Serial baseline on a cold engine.
  constexpr size_t kReleases = 48;
  PcorEngine baseline_engine(grid_.dataset, detector_);
  std::vector<ContextVec> expected(kReleases);
  std::vector<double> expected_scores(kReleases, 0.0);
  for (size_t i = 0; i < kReleases; ++i) {
    Rng rng(1000 + i);
    auto release = baseline_engine.Release(grid_.v_row, options, &rng);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    expected[i] = release->context;
    expected_scores[i] = release->utility_score;
  }

  // Same releases, 8-way concurrent, one shared verifier cache.
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  ThreadPool pool(7);  // plus the caller: 8 threads
  pool.ParallelFor(kReleases, 0, [&](size_t i) {
    Rng rng(1000 + i);
    auto release = engine.Release(grid_.v_row, options, &rng);
    if (!release.ok()) {
      failures.fetch_add(1);
      return;
    }
    if (release->context != expected[i] ||
        release->utility_score != expected_scores[i]) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  // The shared cache must actually have been shared: far fewer detector
  // runs than 48 cold releases would need.
  EXPECT_LT(engine.verifier().evaluations(),
            baseline_engine.verifier().evaluations() * kReleases);
  EXPECT_GT(engine.verifier().cache_hits(), 0u);
}

TEST_F(VerifierTest, ConcurrentReleasesSurviveCacheClears) {
  // ClearCache() concurrent with releases must never change results —
  // the cache is a pure memo over a deterministic function.
  PcorEngine engine(grid_.dataset, detector_);
  PcorOptions options;
  options.sampler = SamplerKind::kUniform;
  options.num_samples = 6;

  Rng baseline_rng(77);
  auto baseline = engine.Release(grid_.v_row, options, &baseline_rng);
  ASSERT_TRUE(baseline.ok());

  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.verifier().ClearCache();
      std::this_thread::yield();
    }
  });
  std::atomic<size_t> mismatches{0};
  ThreadPool pool(3);  // plus the caller: 4 threads
  pool.ParallelFor(32, 0, [&](size_t) {
    Rng rng(77);
    auto release = engine.Release(grid_.v_row, options, &rng);
    if (!release.ok() || release->context != baseline->context) {
      mismatches.fetch_add(1);
    }
  });
  stop.store(true);
  clearer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(VerifierTest, CacheBudgetEvictionUnderConcurrentReleases) {
  // A tiny byte budget forces LRU eviction mid-release; correctness must
  // not depend on entries staying resident.
  VerifierOptions small_cache;
  small_cache.max_cache_bytes = 2048;
  PcorEngine engine(grid_.dataset, detector_, small_cache);
  PcorEngine reference(grid_.dataset, detector_);
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;

  std::atomic<size_t> mismatches{0};
  ThreadPool pool(3);  // plus the caller: 4 threads
  pool.ParallelFor(16, 0, [&](size_t i) {
    Rng rng(500 + i);
    auto capped = engine.Release(grid_.v_row, options, &rng);
    Rng ref_rng(500 + i);
    auto full = reference.Release(grid_.v_row, options, &ref_rng);
    if (!capped.ok() || !full.ok() || capped->context != full->context) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

// The population-size utility reads |D_C| from the memo entry instead of
// probing the index. These tests pin that stored count to the probe's.

// A loose z-score (threshold 1) flags the 99s and 103s of every tight
// cluster, so most fuzzed contexts have outliers whose |D_C| is reported.
ZscoreDetector LooseDetector(size_t min_population = 4) {
  ZscoreOptions options;
  options.threshold = 1.0;
  options.min_population = min_population;
  return ZscoreDetector(options);
}

// For every fuzzed context and every row: OutlierPopulation is |D_C| from
// the probe exactly when the row is a flagged outlier of D_C, else nullopt.
// Returns how many (context, row) pairs reported a population.
size_t ExpectPopulationMatchesProbe(const OutlierVerifier& verifier,
                                    const std::vector<ContextVec>& contexts,
                                    uint32_t num_rows) {
  size_t reported = 0;
  for (const ContextVec& c : contexts) {
    const size_t expected = verifier.index().PopulationCount(c);
    const auto outliers = verifier.OutliersInContext(c);
    for (uint32_t row = 0; row < num_rows; ++row) {
      const std::optional<size_t> population =
          verifier.OutlierPopulation(c, row);
      const bool flagged =
          std::binary_search(outliers->begin(), outliers->end(), row);
      EXPECT_EQ(population.has_value(), flagged) << "row " << row;
      EXPECT_EQ(verifier.IsOutlierInContext(c, row), flagged);
      if (population) {
        EXPECT_EQ(*population, expected) << "row " << row;
        ++reported;
      }
    }
  }
  return reported;
}

TEST_F(VerifierTest, StoredPopulationMatchesProbeOnFuzzedContexts) {
  const ZscoreDetector loose = LooseDetector();
  const auto contexts =
      testing_util::FuzzContexts(grid_.dataset.schema(), 61, 24);
  const auto num_rows = static_cast<uint32_t>(grid_.dataset.num_rows());
  for (bool enable_cache : {true, false}) {
    SCOPED_TRACE(testing::Message() << "cache=" << enable_cache);
    VerifierOptions options;
    options.enable_cache = enable_cache;
    OutlierVerifier verifier(index_, loose, options);
    // Twice: the second pass answers from the memo when it is on.
    EXPECT_GT(ExpectPopulationMatchesProbe(verifier, contexts, num_rows), 0u);
    EXPECT_GT(ExpectPopulationMatchesProbe(verifier, contexts, num_rows), 0u);
    EXPECT_EQ(verifier.cache_hits() > 0, enable_cache);
  }
}

TEST_F(VerifierTest, StoredPopulationBelowMinPopulationReportsNo) {
  // V's exact context holds 13 rows; a min_population of 14 gates it.
  const ZscoreDetector gated = LooseDetector(/*min_population=*/14);
  OutlierVerifier verifier(index_, gated);
  const ContextVec exact = index_.ExactContextOf(grid_.v_row);
  ASSERT_EQ(index_.PopulationCount(exact), 13u);
  for (uint32_t row : index_.RowIdsOf(exact)) {
    EXPECT_FALSE(verifier.OutlierPopulation(exact, row).has_value());
  }
  EXPECT_EQ(verifier.evaluations(), 1u);  // computed once, then memoized
  EXPECT_TRUE(verifier.OutliersInContext(exact)->empty());
  // A population above the gate still reports its size.
  const auto outliers = verifier.OutliersInContext(FullCtx());
  ASSERT_FALSE(outliers->empty());
  EXPECT_EQ(verifier.OutlierPopulation(FullCtx(), outliers->front()),
            index_.PopulationCount(FullCtx()));
}

TEST_F(VerifierTest, SharedStreamingMemoReportsEachEpochsPopulation) {
  // Metrics 99..103 only, so the loose detector flags rows in both epochs.
  const auto grid = testing_util::MakeGridDataset(12, /*v_metric=*/103.0);
  const auto rows = testing_util::RowsOf(grid.dataset);
  const ZscoreDetector loose = LooseDetector();
  const auto contexts =
      testing_util::FuzzContexts(grid.dataset.schema(), 62, 16);
  StreamingPcorEngine stream(grid.dataset.schema(), loose);
  const uint32_t half = static_cast<uint32_t>(rows.size() / 2);
  ASSERT_TRUE(stream.AppendRows(std::span<const Row>(rows).first(half)).ok());
  stream.SealEpoch();
  const auto early = stream.Pin();
  ASSERT_TRUE(stream.AppendRows(std::span<const Row>(rows).subspan(half)).ok());
  stream.SealEpoch();
  const auto late = stream.Pin();
  const OutlierVerifier& v_early = early->engine->verifier();
  const OutlierVerifier& v_late = late->engine->verifier();
  ASSERT_EQ(v_early.memo(), v_late.memo());
  ASSERT_NE(v_early.epoch(), v_late.epoch());

  // Early, late, then early again: the third pass hits entries the first
  // left in the shared memo, after the late epoch filled its own.
  for (const OutlierVerifier* verifier : {&v_early, &v_late, &v_early}) {
    EXPECT_GT(ExpectPopulationMatchesProbe(*verifier, contexts, half), 0u);
  }
  EXPECT_GT(stream.memo()->CacheStats().hits, 0u);
  // One context, one row, two epochs: each reports its own |D_C|.
  size_t differing = 0;
  for (const ContextVec& c : contexts) {
    for (uint32_t row = 0; row < half; ++row) {
      const std::optional<size_t> early_pop = v_early.OutlierPopulation(c, row);
      const std::optional<size_t> late_pop = v_late.OutlierPopulation(c, row);
      if (early_pop && late_pop && *early_pop != *late_pop) ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

}  // namespace
}  // namespace pcor
