#include "src/context/population_index.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using testing_util::RandomContext;

// Naive reference: scan every row and apply the conjunction-of-disjunctions
// semantics directly.
std::vector<uint32_t> NaivePopulation(const Dataset& d, const ContextVec& c) {
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < d.num_rows(); ++row) {
    if (context_ops::ContainsRow(d.schema(), d, row, c)) rows.push_back(row);
  }
  return rows;
}

TEST(PopulationIndexTest, MatchesNaiveFilterOnRandomContexts) {
  auto grid = testing_util::MakeSpreadGridDataset();
  PopulationIndex index(grid.dataset);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    ContextVec c = RandomContext(grid.dataset.schema(), 0.5, &rng);
    EXPECT_EQ(index.RowIdsOf(c), NaivePopulation(grid.dataset, c))
        << c.ToBitString();
    EXPECT_EQ(index.PopulationCount(c),
              NaivePopulation(grid.dataset, c).size());
  }
}

TEST(PopulationIndexTest, EmptyAttributeSelectsNothing) {
  auto grid = testing_util::MakeGridDataset();
  PopulationIndex index(grid.dataset);
  ContextVec c(grid.dataset.schema().total_values());
  c.Set(0);  // A chosen, B empty
  EXPECT_EQ(index.PopulationCount(c), 0u);
}

TEST(PopulationIndexTest, FullContextSelectsEverything) {
  auto grid = testing_util::MakeGridDataset();
  PopulationIndex index(grid.dataset);
  ContextVec full = context_ops::FullContext(grid.dataset.schema());
  EXPECT_EQ(index.PopulationCount(full), grid.dataset.num_rows());
}

TEST(PopulationIndexTest, OverlapCountMatchesIntersection) {
  auto grid = testing_util::MakeSpreadGridDataset();
  PopulationIndex index(grid.dataset);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    ContextVec c1 = RandomContext(grid.dataset.schema(), 0.5, &rng);
    ContextVec c2 = RandomContext(grid.dataset.schema(), 0.5, &rng);
    auto r1 = NaivePopulation(grid.dataset, c1);
    auto r2 = NaivePopulation(grid.dataset, c2);
    std::vector<uint32_t> both;
    std::set_intersection(r1.begin(), r1.end(), r2.begin(), r2.end(),
                          std::back_inserter(both));
    EXPECT_EQ(index.OverlapCount(c1, c2), both.size());
  }
}

TEST(PopulationIndexTest, MetricOfGathersAlignedValues) {
  auto grid = testing_util::MakeGridDataset();
  PopulationIndex index(grid.dataset);
  ContextVec exact = context_ops::ExactContext(grid.dataset.schema(),
                                               grid.dataset, grid.v_row);
  auto rows = index.RowIdsOf(exact);
  auto metric = index.MetricOf(exact);
  ASSERT_EQ(rows.size(), metric.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(metric[i], grid.dataset.metric(rows[i]));
  }
}

TEST(PopulationIndexTest, MetricWithTargetLocatesV) {
  auto grid = testing_util::MakeGridDataset();
  PopulationIndex index(grid.dataset);
  ContextVec full = context_ops::FullContext(grid.dataset.schema());
  std::vector<double> metric;
  size_t pos = 0;
  ASSERT_TRUE(index.MetricWithTarget(full, grid.v_row, &metric, &pos));
  ASSERT_LT(pos, metric.size());
  EXPECT_DOUBLE_EQ(metric[pos], grid.dataset.metric(grid.v_row));

  // A context not containing V reports failure.
  ContextVec other(grid.dataset.schema().total_values());
  other.Set(1);  // a1
  other.Set(4);  // b1
  EXPECT_FALSE(index.MetricWithTarget(other, grid.v_row, &metric, &pos));
}

TEST(PopulationIndexTest, ValueBitmapsPartitionRows) {
  auto grid = testing_util::MakeGridDataset();
  PopulationIndex index(grid.dataset);
  const Schema& schema = grid.dataset.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    size_t total = 0;
    for (size_t v = 0; v < schema.attribute(a).domain_size(); ++v) {
      total += index.ValueBitmap(a, v).Count();
    }
    EXPECT_EQ(total, grid.dataset.num_rows());
  }
}

}  // namespace
}  // namespace pcor
