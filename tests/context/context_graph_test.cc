#include "src/context/context_graph.h"

#include <gtest/gtest.h>

#include "tests/testing_util.h"

namespace pcor {
namespace {

class ContextGraphTest : public ::testing::Test {
 protected:
  ContextGraphTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        index_(grid_.dataset),
        detector_(testing_util::MakeTestDetector()),
        verifier_(index_, detector_),
        graph_(grid_.dataset.schema()) {}

  testing_util::GridData grid_;
  PopulationIndex index_;
  ZscoreDetector detector_;
  OutlierVerifier verifier_;
  ContextGraph graph_;
};

TEST_F(ContextGraphTest, DegreeEqualsTotalValues) {
  EXPECT_EQ(graph_.degree(), grid_.dataset.schema().total_values());
}

TEST_F(ContextGraphTest, NeighborsAreExactlyHammingOne) {
  ContextVec c(graph_.degree());
  c.Set(0);
  c.Set(4);
  std::vector<ContextVec> neighbors;
  graph_.ForEachNeighbor(
      c, [&neighbors](const ContextVec& n) { neighbors.push_back(n); });
  ASSERT_EQ(neighbors.size(), graph_.degree());
  for (const auto& n : neighbors) {
    EXPECT_EQ(c.HammingDistance(n), 1u);
  }
  // All neighbors distinct.
  for (size_t i = 0; i < neighbors.size(); ++i) {
    for (size_t j = i + 1; j < neighbors.size(); ++j) {
      EXPECT_FALSE(neighbors[i] == neighbors[j]);
    }
  }
}

TEST_F(ContextGraphTest, ForEachNeighborRestoresTheInput) {
  ContextVec c(graph_.degree());
  c.Set(2);
  ContextVec copy = c;
  graph_.ForEachNeighbor(c, [](const ContextVec&) {});
  EXPECT_EQ(c, copy);
}

TEST_F(ContextGraphTest, MatchingNeighborsAreMatchingAndConnected) {
  ContextVec start = context_ops::ExactContext(grid_.dataset.schema(),
                                               grid_.dataset, grid_.v_row);
  auto matching = graph_.MatchingNeighbors(verifier_, start, grid_.v_row);
  for (const auto& c : matching) {
    EXPECT_EQ(start.HammingDistance(c), 1u);
    EXPECT_TRUE(verifier_.IsOutlierInContext(c, grid_.v_row));
  }
}

TEST_F(ContextGraphTest, LocalityHoldsOnThePlantedWorkload) {
  // V is an outlier in most contexts containing it except those mixing in
  // the wild (a2, b2) group; matching contexts cluster, so neighbor match
  // rate should beat the random-context match rate.
  ContextVec seed = context_ops::ExactContext(grid_.dataset.schema(),
                                              grid_.dataset, grid_.v_row);
  ASSERT_TRUE(verifier_.IsOutlierInContext(seed, grid_.v_row));
  Rng rng(21);
  LocalityStats stats =
      MeasureLocality(verifier_, graph_, grid_.v_row, seed, 200, &rng);
  EXPECT_GT(stats.neighbor_probes, 0u);
  EXPECT_GT(stats.random_probes, 0u);
  EXPECT_GE(stats.neighbor_match_rate, 0.0);
  EXPECT_LE(stats.neighbor_match_rate, 1.0);
  EXPECT_GT(stats.neighbor_match_rate, stats.random_match_rate);
}

}  // namespace
}  // namespace pcor
