#include "src/exp/experiment.h"

#include <gtest/gtest.h>

#include "tests/testing_util.h"

namespace pcor {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  ExperimentTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {
    auto table = ReferenceTable::Build(engine_.verifier(), {grid_.v_row});
    table.status().CheckOK();
    reference_ = std::move(*table);
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
  ReferenceTable reference_;
};

TEST_F(ExperimentTest, RunsRequestedTrials) {
  TrialConfig config;
  config.release.sampler = SamplerKind::kBfs;
  config.release.num_samples = 8;
  config.trials = 12;
  config.threads = 1;
  auto result = RunPcorExperiment(engine_, {grid_.v_row}, reference_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failures, 0u);
  EXPECT_EQ(result->utility_ratios.size(), 12u);
  EXPECT_EQ(result->runtimes.size(), 12u);
}

TEST_F(ExperimentTest, UtilityRatiosAreNormalized) {
  TrialConfig config;
  config.release.sampler = SamplerKind::kBfs;
  config.release.num_samples = 8;
  config.trials = 20;
  config.threads = 2;
  auto result = RunPcorExperiment(engine_, {grid_.v_row}, reference_, config);
  ASSERT_TRUE(result.ok());
  for (double ratio : result->utility_ratios) {
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0 + 1e-9);  // release is in COE, so <= max
  }
  auto ci = result->utility_ci();
  EXPECT_GE(ci.mean, 0.0);
  EXPECT_LE(ci.lower, ci.mean);
  EXPECT_GE(ci.upper, ci.mean);
}

TEST_F(ExperimentTest, ParallelAndSerialAgreeStatistically) {
  TrialConfig config;
  config.release.sampler = SamplerKind::kRandomWalk;
  config.release.num_samples = 8;
  config.trials = 16;
  config.seed = 5;
  config.threads = 1;
  auto serial = RunPcorExperiment(engine_, {grid_.v_row}, reference_, config);
  config.threads = 8;
  auto parallel =
      RunPcorExperiment(engine_, {grid_.v_row}, reference_, config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  // Same seeds per trial index => identical utility ratios regardless of
  // thread count (runtimes differ, of course).
  ASSERT_EQ(serial->utility_ratios.size(), parallel->utility_ratios.size());
  for (size_t i = 0; i < serial->utility_ratios.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial->utility_ratios[i], parallel->utility_ratios[i]);
  }
}

TEST_F(ExperimentTest, RuntimeSummaryIsPopulated) {
  TrialConfig config;
  config.release.sampler = SamplerKind::kDirect;
  config.trials = 4;
  auto result = RunPcorExperiment(engine_, {grid_.v_row}, reference_, config);
  ASSERT_TRUE(result.ok());
  auto runtime = result->runtime();
  EXPECT_EQ(runtime.trials, 4u);
  EXPECT_GE(runtime.min_seconds, 0.0);
  EXPECT_GE(runtime.max_seconds, runtime.min_seconds);
}

TEST_F(ExperimentTest, RejectsDegenerateConfigs) {
  TrialConfig config;
  config.trials = 0;
  EXPECT_FALSE(
      RunPcorExperiment(engine_, {grid_.v_row}, reference_, config).ok());
  config.trials = 2;
  EXPECT_FALSE(RunPcorExperiment(engine_, {}, reference_, config).ok());
}

TEST_F(ExperimentTest, InlierOnlyPoolFails) {
  TrialConfig config;
  config.trials = 2;
  auto result = RunPcorExperiment(engine_, {0, 1}, reference_, config);
  EXPECT_TRUE(result.status().IsNoValidContext());
}

TEST_F(ExperimentTest, OverlapUtilityExperimentRuns) {
  TrialConfig config;
  config.release.sampler = SamplerKind::kBfs;
  config.release.utility = UtilityKind::kOverlapWithStart;
  config.release.num_samples = 8;
  config.trials = 8;
  auto result = RunPcorExperiment(engine_, {grid_.v_row}, reference_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failures, 0u);
  for (double ratio : result->utility_ratios) {
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace pcor
