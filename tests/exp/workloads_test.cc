#include "src/exp/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "src/common/threading.h"
#include "src/context/sharded_population_index.h"
#include "src/context/starting_context.h"
#include "src/outlier/lof.h"

namespace pcor {
namespace {

TEST(WorkloadsTest, ReducedSalaryShapeMatchesPaper) {
  auto workload = MakeReducedSalaryWorkload(/*scale=*/1.0);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->name, "salary_reduced");
  EXPECT_EQ(workload->data.dataset.num_rows(), 11000u);
  EXPECT_EQ(workload->data.dataset.schema().total_values(), 14u);
  EXPECT_FALSE(workload->data.planted_outlier_rows.empty());
}

TEST(WorkloadsTest, ScaleShrinksRowsWithFloor) {
  auto small = MakeReducedSalaryWorkload(/*scale=*/0.1);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->data.dataset.num_rows(), 1100u);
  auto tiny = MakeReducedSalaryWorkload(/*scale=*/1e-6);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->data.dataset.num_rows(), 500u);  // floor
}

TEST(WorkloadsTest, ReducedHomicideShapeMatchesPaper) {
  auto workload = MakeReducedHomicideWorkload(/*scale=*/0.25);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->data.dataset.schema().total_values(), 12u);
  EXPECT_EQ(workload->data.dataset.num_rows(), 7000u);
}

TEST(WorkloadsTest, FullWorkloadsScale) {
  auto salary = MakeFullSalaryWorkload(/*scale=*/0.02);
  ASSERT_TRUE(salary.ok());
  EXPECT_EQ(salary->data.dataset.num_rows(), 1020u);
  EXPECT_EQ(salary->data.dataset.schema().total_values(), 25u);
  auto homicide = MakeFullHomicideWorkload(/*scale=*/0.01);
  ASSERT_TRUE(homicide.ok());
  EXPECT_EQ(homicide->data.dataset.num_rows(), 1100u);
  EXPECT_EQ(homicide->data.dataset.schema().total_values(), 16u);
}

TEST(WorkloadsTest, SelectQueryOutliersReturnsVerifiedOutliers) {
  auto workload = MakeReducedSalaryWorkload(/*scale=*/0.2);
  ASSERT_TRUE(workload.ok());
  PopulationIndex index(workload->data.dataset);
  LofOptions lof_options;
  lof_options.k = 10;
  LofDetector detector(lof_options);
  OutlierVerifier verifier(index, detector);
  Rng rng(3);
  auto selected = SelectQueryOutliers(
      verifier, workload->data.planted_outlier_rows, 5, &rng);
  EXPECT_LE(selected.size(), 5u);
  StartingContextOptions options;
  for (uint32_t row : selected) {
    Rng probe(7);
    auto start = FindStartingContext(verifier, row, options, &probe);
    EXPECT_TRUE(start.ok()) << row;
  }
}

// The start searches run in waves on the probe's pool; the selection and
// the state the caller's Rng is left in must equal the serial run's, and
// the one-candidate-at-a-time loop's.
TEST(WorkloadsTest, SelectQueryOutliersIsIdenticalOnThePoolAndSerially) {
  auto workload = MakeReducedSalaryWorkload(/*scale=*/0.1);
  ASSERT_TRUE(workload.ok());
  const Dataset& dataset = workload->data.dataset;
  // Planted rows plus inliers, so that quota-sized waves find too few
  // outliers and repeat.
  std::vector<uint32_t> candidates = workload->data.planted_outlier_rows;
  for (uint32_t row = 0; row < 40; ++row) {
    if (std::find(candidates.begin(), candidates.end(), row) ==
        candidates.end()) {
      candidates.push_back(row);
    }
  }
  LofOptions lof_options;
  lof_options.k = 10;
  LofDetector detector(lof_options);

  PopulationIndex bare(dataset);
  ASSERT_EQ(bare.probe_pool(), nullptr);
  ShardedIndexOptions index_options;
  index_options.shard_count = 3;
  index_options.pool = std::make_shared<ThreadPool>(3);
  ShardedPopulationIndex sharded(dataset, index_options);
  ASSERT_EQ(sharded.probe_pool(), index_options.pool.get());

  // The serial loop SelectQueryOutliers replaces: fork, search, stop at
  // the quota.
  const auto one_at_a_time = [&](size_t quota, Rng* rng) {
    OutlierVerifier verifier(bare, detector);
    std::vector<uint32_t> shuffled = candidates;
    rng->Shuffle(&shuffled);
    std::vector<uint32_t> selected;
    for (uint32_t row : shuffled) {
      if (selected.size() >= quota) break;
      Rng probe = rng->Fork();
      if (FindStartingContext(verifier, row, StartingContextOptions{}, &probe)
              .ok()) {
        selected.push_back(row);
      }
    }
    std::sort(selected.begin(), selected.end());
    return selected;
  };

  std::vector<uint32_t> all_valid;
  for (size_t quota :
       {size_t{1}, size_t{5}, std::numeric_limits<size_t>::max()}) {
    SCOPED_TRACE(quota);
    Rng reference_rng(11);
    const std::vector<uint32_t> reference =
        one_at_a_time(quota, &reference_rng);
    OutlierVerifier serial_verifier(bare, detector);
    Rng serial_rng(11);
    const std::vector<uint32_t> serial =
        SelectQueryOutliers(serial_verifier, candidates, quota, &serial_rng);
    OutlierVerifier pooled_verifier(sharded, detector);
    Rng pooled_rng(11);
    const std::vector<uint32_t> pooled =
        SelectQueryOutliers(pooled_verifier, candidates, quota, &pooled_rng);

    EXPECT_EQ(serial, reference);
    EXPECT_EQ(pooled, reference);
    EXPECT_LE(reference.size(), quota);
    const uint64_t next = reference_rng.Next();
    EXPECT_EQ(serial_rng.Next(), next);
    EXPECT_EQ(pooled_rng.Next(), next);
    all_valid = reference;  // the unbounded quota's run comes last
  }
  // An inlier is among the first five shuffled candidates, so the quota-5
  // selection took more than one wave.
  ASSERT_GT(all_valid.size(), 5u);
  std::vector<uint32_t> shuffled = candidates;
  Rng(11).Shuffle(&shuffled);
  const size_t valid_in_first_wave = static_cast<size_t>(
      std::count_if(shuffled.begin(), shuffled.begin() + 5, [&](uint32_t r) {
        return std::binary_search(all_valid.begin(), all_valid.end(), r);
      }));
  EXPECT_LT(valid_in_first_wave, 5u);
}

}  // namespace
}  // namespace pcor
