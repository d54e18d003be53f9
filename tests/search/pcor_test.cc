#include "src/search/pcor.h"

#include <gtest/gtest.h>

#include "tests/testing_util.h"

namespace pcor {
namespace {

class PcorEngineTest : public ::testing::Test {
 protected:
  PcorEngineTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

TEST_F(PcorEngineTest, ReleasesAValidContextForEverySampler) {
  for (SamplerKind kind :
       {SamplerKind::kDirect, SamplerKind::kUniform, SamplerKind::kRandomWalk,
        SamplerKind::kDfs, SamplerKind::kBfs}) {
    PcorOptions options;
    options.sampler = kind;
    options.num_samples = 8;
    options.total_epsilon = 0.2;
    Rng rng(17);
    auto release = engine_.Release(grid_.v_row, options, &rng);
    ASSERT_TRUE(release.ok())
        << SamplerKindName(kind) << ": " << release.status().ToString();
    // Property (a) of Definition 3.2: the released context is valid.
    EXPECT_TRUE(
        engine_.verifier().IsOutlierInContext(release->context, grid_.v_row))
        << SamplerKindName(kind);
    EXPECT_FALSE(release->description.empty());
    EXPECT_GT(release->num_candidates, 0u);
    EXPECT_GT(release->utility_score, 0.0);
  }
}

TEST_F(PcorEngineTest, EpsilonAccountingFollowsTheTheorems) {
  PcorOptions options;
  options.total_epsilon = 0.2;
  options.num_samples = 50;

  options.sampler = SamplerKind::kRandomWalk;
  Rng rng(23);
  auto rwalk = engine_.Release(grid_.v_row, options, &rng);
  ASSERT_TRUE(rwalk.ok());
  EXPECT_DOUBLE_EQ(rwalk->epsilon1, 0.1);  // eps/2
  EXPECT_NEAR(rwalk->epsilon_spent, 0.2, 1e-12);

  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  auto bfs = engine_.Release(grid_.v_row, options, &rng);
  ASSERT_TRUE(bfs.ok());
  EXPECT_NEAR(bfs->epsilon1, 0.2 / 18.0, 1e-12);  // eps/(2n+2)
  EXPECT_NEAR(bfs->epsilon_spent, 0.2, 1e-12);
}

TEST_F(PcorEngineTest, OverlapUtilityReleaseWorks) {
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.utility = UtilityKind::kOverlapWithStart;
  options.num_samples = 8;
  Rng rng(29);
  auto release = engine_.Release(grid_.v_row, options, &rng);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_TRUE(
      engine_.verifier().IsOutlierInContext(release->context, grid_.v_row));
  // Overlap with C_V of a context containing V is at least 1 (V itself).
  EXPECT_GE(release->utility_score, 1.0);
}

TEST_F(PcorEngineTest, NonOutlierRowFails) {
  PcorOptions options;
  Rng rng(31);
  auto release = engine_.Release(/*v_row=*/0, options, &rng);
  EXPECT_FALSE(release.ok());
  EXPECT_TRUE(release.status().IsNoValidContext());
}

TEST_F(PcorEngineTest, OutOfRangeRowFails) {
  PcorOptions options;
  options.sampler = SamplerKind::kDirect;
  Rng rng(37);
  auto release =
      engine_.Release(grid_.dataset.num_rows() + 3, options, &rng);
  EXPECT_FALSE(release.ok());
}

TEST_F(PcorEngineTest, ReleaseRecordsWorkCounters) {
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 6;
  Rng rng(41);
  auto release = engine_.Release(grid_.v_row, options, &rng);
  ASSERT_TRUE(release.ok());
  EXPECT_GT(release->probes, 0u);
  EXPECT_GE(release->seconds, 0.0);
  EXPECT_LE(release->num_candidates, 6u);
}

TEST_F(PcorEngineTest, ReleasedContextsFollowTheUtilityWeighting) {
  // Repeated BFS releases should, on average, produce contexts with larger
  // population than the exact starting context (directed mechanism).
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 10;
  options.total_epsilon = 2.0;  // strong signal for the test
  const PopulationProbe& index = engine_.probe();
  ContextVec exact = context_ops::ExactContext(grid_.dataset.schema(),
                                               grid_.dataset, grid_.v_row);
  const double exact_pop = static_cast<double>(index.PopulationCount(exact));
  double avg = 0;
  const int trials = 15;
  for (int i = 0; i < trials; ++i) {
    Rng rng(100 + i);
    auto release = engine_.Release(grid_.v_row, options, &rng);
    ASSERT_TRUE(release.ok());
    avg += static_cast<double>(index.PopulationCount(release->context));
  }
  avg /= trials;
  EXPECT_GT(avg, exact_pop);
}

TEST_F(PcorEngineTest, DeterministicGivenSeed) {
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  Rng rng1(55), rng2(55);
  auto a = engine_.Release(grid_.v_row, options, &rng1);
  auto b = engine_.Release(grid_.v_row, options, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->context, b->context);
}

}  // namespace
}  // namespace pcor
