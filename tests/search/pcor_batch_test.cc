#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/search/pcor.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

// Fields of a release that must be bit-identical across thread counts.
// (Wall time and the per-entry f_evaluations attribution legitimately vary
// when concurrent releases interleave on the shared verifier cache.)
void ExpectSameRelease(const BatchEntry& a, const BatchEntry& b) {
  ASSERT_EQ(a.status.ok(), b.status.ok()) << a.status.ToString() << " vs "
                                          << b.status.ToString();
  EXPECT_EQ(a.v_row, b.v_row);
  EXPECT_EQ(a.rng_seed, b.rng_seed);
  if (!a.status.ok()) {
    EXPECT_EQ(a.status.code(), b.status.code());
    return;
  }
  EXPECT_EQ(a.release.context, b.release.context);
  EXPECT_EQ(a.release.starting_context, b.release.starting_context);
  EXPECT_EQ(a.release.description, b.release.description);
  EXPECT_DOUBLE_EQ(a.release.epsilon_spent, b.release.epsilon_spent);
  EXPECT_DOUBLE_EQ(a.release.epsilon1, b.release.epsilon1);
  EXPECT_EQ(a.release.num_candidates, b.release.num_candidates);
  EXPECT_EQ(a.release.probes, b.release.probes);
  EXPECT_DOUBLE_EQ(a.release.utility_score, b.release.utility_score);
  EXPECT_EQ(a.release.hit_probe_cap, b.release.hit_probe_cap);
}

// Batch totals, summed over the entries that released.
size_t SumProbes(const BatchReleaseReport& report) {
  size_t probes = 0;
  for (const BatchEntry& e : report.entries) {
    if (e.status.ok()) probes += e.release.probes;
  }
  return probes;
}

double SumEpsilon(const BatchReleaseReport& report) {
  double epsilon = 0.0;
  for (const BatchEntry& e : report.entries) {
    if (e.status.ok()) epsilon += e.release.epsilon_spent;
  }
  return epsilon;
}

size_t CountProbeCapped(const BatchReleaseReport& report) {
  size_t capped = 0;
  for (const BatchEntry& e : report.entries) {
    if (e.status.ok() && e.release.hit_probe_cap) ++capped;
  }
  return capped;
}

class PcorBatchTest : public ::testing::Test {
 protected:
  PcorBatchTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

TEST_F(PcorBatchTest, SameSeedIsIdenticalAcrossThreadCounts) {
  // >= 100 releases of the known outlier; every sampler kind in the mix
  // would slow the suite, so BFS (the paper's choice) stands in.
  std::vector<uint32_t> rows(120, grid_.v_row);
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  options.total_epsilon = 0.4;

  const uint64_t seed = 2021;
  const BatchReleaseReport one = engine_.ReleaseBatch(
      std::span<const uint32_t>(rows), options, seed, /*num_threads=*/1);
  ASSERT_EQ(one.entries.size(), rows.size());
  EXPECT_EQ(one.failures, 0u);
  EXPECT_EQ(one.threads, 1u);

  for (size_t threads : {2u, 8u}) {
    const BatchReleaseReport many = engine_.ReleaseBatch(
        std::span<const uint32_t>(rows), options, seed, threads);
    ASSERT_EQ(many.entries.size(), one.entries.size());
    // Capped by the engine pool's workers plus the participating caller.
    const size_t pool_workers = engine_.probe().probe_pool()->num_threads();
    EXPECT_EQ(many.threads, std::min(threads, pool_workers + 1));
    EXPECT_EQ(many.failures, one.failures);
    EXPECT_EQ(SumProbes(many), SumProbes(one));
    EXPECT_DOUBLE_EQ(SumEpsilon(many), SumEpsilon(one));
    for (size_t i = 0; i < one.entries.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameRelease(one.entries[i], many.entries[i]);
    }
  }
}

TEST_F(PcorBatchTest, DistinctSeedsGiveIndependentStreams) {
  std::vector<uint32_t> rows(24, grid_.v_row);
  PcorOptions options;
  options.sampler = SamplerKind::kUniform;
  options.num_samples = 6;

  const BatchReleaseReport a =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 7, 2);
  const BatchReleaseReport b =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 8, 2);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  size_t differing = 0;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].release.context != b.entries[i].release.context ||
        a.entries[i].release.utility_score !=
            b.entries[i].release.utility_score) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u) << "different seeds should change some draws";
}

TEST_F(PcorBatchTest, MatchesSingleReleaseReplay) {
  // Any entry replays in isolation from its recorded stream seed.
  std::vector<uint32_t> rows(10, grid_.v_row);
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  const BatchReleaseReport report =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 99, 4);
  ASSERT_EQ(report.failures, 0u);
  for (size_t i = 0; i < report.entries.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(report.entries[i].rng_seed, PcorEngine::BatchTrialSeed(99, i));
    Rng rng(report.entries[i].rng_seed);
    auto single = engine_.Release(rows[i], options, &rng);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ(single->context, report.entries[i].release.context);
    EXPECT_DOUBLE_EQ(single->utility_score,
                     report.entries[i].release.utility_score);
  }
}

TEST_F(PcorBatchTest, RecordsPerEntryFailuresWithoutSinkingTheBatch) {
  // Row 1 sits in the tight cluster: no context flags it, so its starting
  // context search fails while the real outlier still releases.
  std::vector<uint32_t> rows = {grid_.v_row, 1, grid_.v_row,
                                static_cast<uint32_t>(1) << 30};
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 4;
  const BatchReleaseReport report =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 3, 2);
  ASSERT_EQ(report.entries.size(), 4u);
  EXPECT_TRUE(report.entries[0].status.ok());
  EXPECT_FALSE(report.entries[1].status.ok());
  EXPECT_TRUE(report.entries[2].status.ok());
  EXPECT_FALSE(report.entries[3].status.ok());  // out of range row
  EXPECT_EQ(report.failures, 2u);
  EXPECT_EQ(report.num_released(), 2u);
}

TEST_F(PcorBatchTest, ExplicitSeedRequestsIgnoreBatchPosition) {
  // The serving front-end's determinism hinges on this: an entry with a
  // pinned seed must release identically no matter where in a batch it
  // lands or what batch seed rode along.
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  const uint64_t pinned = 0xfeedfacecafebeefULL;

  BatchRequest lone;
  lone.v_row = grid_.v_row;
  lone.use_explicit_seed = true;
  lone.rng_seed = pinned;
  const BatchReleaseReport solo = engine_.ReleaseBatch(
      std::span<const BatchRequest>(&lone, 1), options, /*seed=*/1, 1);
  ASSERT_EQ(solo.failures, 0u);
  EXPECT_EQ(solo.entries[0].rng_seed, pinned);

  // Same request packed at the tail of a bigger batch under another seed.
  std::vector<BatchRequest> packed(5);
  for (auto& r : packed) r.v_row = grid_.v_row;
  packed.back() = lone;
  const BatchReleaseReport crowd = engine_.ReleaseBatch(
      std::span<const BatchRequest>(packed), options, /*seed=*/999, 4);
  ASSERT_EQ(crowd.failures, 0u);
  EXPECT_EQ(crowd.entries.back().rng_seed, pinned);
  ExpectSameRelease(solo.entries[0], crowd.entries.back());
  // Entries without the flag still derive from (seed, index).
  EXPECT_EQ(crowd.entries[0].rng_seed, PcorEngine::BatchTrialSeed(999, 0));
}

TEST_F(PcorBatchTest, PerEntryOptionsOverrideTheBatchDefaults) {
  // A heterogeneous batch: entries 0/2 ride the batch defaults, entry 1
  // carries a cheap uniform override, entry 3 a wide high-epsilon BFS one.
  // Each entry must release exactly as a solo Release under its own
  // effective options and seed — the sub-batches are homogeneous by
  // construction.
  PcorOptions defaults;
  defaults.sampler = SamplerKind::kBfs;
  defaults.num_samples = 8;
  defaults.total_epsilon = 0.4;
  PcorOptions cheap;
  cheap.sampler = SamplerKind::kUniform;
  cheap.num_samples = 4;
  cheap.total_epsilon = 0.1;
  PcorOptions wide = defaults;
  wide.num_samples = 12;
  wide.total_epsilon = 0.9;

  std::vector<BatchRequest> requests(4);
  for (auto& r : requests) r.v_row = grid_.v_row;
  requests[1].options = cheap;
  requests[3].options = wide;

  const uint64_t seed = 77;
  for (size_t threads : {1u, 4u}) {
    const BatchReleaseReport report = engine_.ReleaseBatch(
        std::span<const BatchRequest>(requests), defaults, seed, threads);
    ASSERT_EQ(report.failures, 0u);
    for (size_t i = 0; i < requests.size(); ++i) {
      const PcorOptions& effective =
          requests[i].options ? *requests[i].options : defaults;
      Rng rng(PcorEngine::BatchTrialSeed(seed, i));
      auto solo = engine_.Release(grid_.v_row, effective, &rng);
      ASSERT_TRUE(solo.ok()) << solo.status().ToString();
      EXPECT_EQ(report.entries[i].release.context, solo->context);
      EXPECT_DOUBLE_EQ(report.entries[i].release.epsilon_spent,
                       solo->epsilon_spent);
      EXPECT_DOUBLE_EQ(report.entries[i].release.epsilon1, solo->epsilon1);
      EXPECT_EQ(report.entries[i].release.probes, solo->probes);
    }
    // The aggregate epsilon reflects the per-entry prices, not 4 defaults.
    EXPECT_NEAR(SumEpsilon(report), 0.4 + 0.1 + 0.4 + 0.9, 1e-12);
  }
}

TEST_F(PcorBatchTest, InvalidPerEntryOptionsFailTheEntryNotTheBatch) {
  PcorOptions defaults;
  defaults.sampler = SamplerKind::kBfs;
  defaults.num_samples = 8;
  defaults.total_epsilon = 0.4;

  std::vector<BatchRequest> requests(3);
  for (auto& r : requests) r.v_row = grid_.v_row;
  requests[1].options = defaults;
  requests[1].options->total_epsilon = 0.0;  // fails ValidatePcorOptions

  const BatchReleaseReport report = engine_.ReleaseBatch(
      std::span<const BatchRequest>(requests), defaults, /*seed=*/5, 2);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_TRUE(report.entries[0].status.ok());
  EXPECT_TRUE(report.entries[1].status.IsInvalidArgument())
      << report.entries[1].status.ToString();
  EXPECT_TRUE(report.entries[2].status.ok());
}

TEST_F(PcorBatchTest, ValidatePcorOptionsCatchesDegenerateConfigs) {
  PcorOptions options;
  EXPECT_TRUE(ValidatePcorOptions(options).ok());
  options.num_samples = 0;
  EXPECT_TRUE(ValidatePcorOptions(options).IsInvalidArgument());
  options.num_samples = 8;
  options.total_epsilon = 0.0;
  EXPECT_TRUE(ValidatePcorOptions(options).IsInvalidArgument());
  options.total_epsilon = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidatePcorOptions(options).IsInvalidArgument());
  options.total_epsilon = 0.2;
  options.max_probes = 0;
  EXPECT_TRUE(ValidatePcorOptions(options).IsInvalidArgument());
  options.max_probes = 100;
  EXPECT_TRUE(ValidatePcorOptions(options).ok());
  // Release surfaces the same validation as a typed error.
  Rng rng(1);
  options.num_samples = 0;
  EXPECT_TRUE(
      engine_.Release(grid_.v_row, options, &rng).status().IsInvalidArgument());
}

TEST_F(PcorBatchTest, TinyEpsilonIsRejectedInsteadOfAborting) {
  // The smallest subnormal total is positive and finite, but eps1 derived
  // from it is 0 (DFS divides by 2n+2, direct halves it, and both round
  // to zero): the mechanism would abort on it, so validation refuses it.
  for (SamplerKind sampler : {SamplerKind::kDfs, SamplerKind::kDirect}) {
    SCOPED_TRACE(SamplerKindName(sampler));
    PcorOptions options;
    options.sampler = sampler;
    options.total_epsilon = 4.9e-324;
    EXPECT_TRUE(ValidatePcorOptions(options).IsInvalidArgument());
    Rng rng(1);
    EXPECT_TRUE(engine_.Release(grid_.v_row, options, &rng)
                    .status()
                    .IsInvalidArgument());
  }
  // A subnormal eps1 is refused too; the smallest total whose eps1 is
  // normal is admitted.
  PcorOptions bfs;
  bfs.num_samples = 8;
  bfs.total_epsilon = std::numeric_limits<double>::min();
  EXPECT_TRUE(ValidatePcorOptions(bfs).IsInvalidArgument());
  bfs.total_epsilon = std::numeric_limits<double>::min() * 18;
  EXPECT_TRUE(ValidatePcorOptions(bfs).ok());
}

TEST_F(PcorBatchTest, AggregatesProbeCap) {
  std::vector<uint32_t> rows(12, grid_.v_row);
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  const BatchReleaseReport report =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 5, 2);
  ASSERT_EQ(report.failures, 0u);

  EXPECT_EQ(CountProbeCapped(report), 0u)
      << "default probe budget must not cap this workload";

  // A starved probe budget must surface as capped entries in the report.
  PcorOptions starved = options;
  starved.max_probes = 2;
  const BatchReleaseReport capped_report =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), starved, 5, 2);
  EXPECT_GT(CountProbeCapped(capped_report), 0u);
}

TEST_F(PcorBatchTest, AllFailedBatchHasZeroTotals) {
  std::vector<uint32_t> rows(3, static_cast<uint32_t>(1) << 30);
  PcorOptions options;
  const BatchReleaseReport report =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 5, 2);
  EXPECT_EQ(report.failures, rows.size());
  EXPECT_EQ(report.num_released(), 0u);
  EXPECT_EQ(CountProbeCapped(report), 0u);
  EXPECT_EQ(SumProbes(report), 0u);
  EXPECT_DOUBLE_EQ(SumEpsilon(report), 0.0);
}

TEST_F(PcorBatchTest, AggregatesCountersAcrossTheBatch) {
  std::vector<uint32_t> rows(16, grid_.v_row);
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  const VerifierStats before = engine_.verifier().Stats();
  const BatchReleaseReport report =
      engine_.ReleaseBatch(std::span<const uint32_t>(rows), options, 11, 2);
  const VerifierStats after = engine_.verifier().Stats();
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(SumProbes(report), 0u);
  EXPECT_DOUBLE_EQ(SumEpsilon(report),
                   16 * report.entries[0].release.epsilon_spent);
  EXPECT_GT(after.evaluations, before.evaluations);
  // The 16 identical releases revisit the same contexts: the shared cache
  // must serve hits across entries.
  EXPECT_GT(after.cache_hits, before.cache_hits);
  EXPECT_GE(report.seconds, 0.0);
}

}  // namespace
}  // namespace pcor
