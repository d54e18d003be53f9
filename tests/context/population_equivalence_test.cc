// Exact-equivalence fuzz between the population index and the naive row
// scan (testing_util::NaivePopulation), the index's correctness bar: on the
// same dataset, every probe — PopulationInto, PopulationCount,
// OverlapCount, RowIdsOf, ValueBitmap — must equal what testing each row
// against the context gives, on random contexts including the degenerate
// shapes (empty attribute, full context, all-singleton exact contexts).
// Runs at grid scale for breadth and on an 80k-row salary dataset so
// populations span many bitmap words.
#include <gtest/gtest.h>

#include <vector>

#include "src/context/population_index.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using testing_util::NaivePopulation;

void ExpectIndexMatchesRowScan(const Dataset& dataset, uint64_t seed,
                               int num_trials) {
  const PopulationIndex index(dataset);
  const Schema& schema = dataset.schema();
  const std::vector<ContextVec> contexts =
      testing_util::FuzzContexts(schema, seed, num_trials);

  BitVector bits, attr_union;
  std::vector<BitVector> naive;
  naive.reserve(contexts.size());
  for (const ContextVec& c : contexts) {
    naive.push_back(NaivePopulation(dataset, c));
    const BitVector& want = naive.back();
    index.PopulationInto(c, &bits, &attr_union);
    ASSERT_EQ(bits, want) << c.ToBitString();
    EXPECT_EQ(index.PopulationCount(c), want.Count()) << c.ToBitString();
    EXPECT_EQ(index.RowIdsOf(c), want.ToIndices()) << c.ToBitString();
  }
  for (size_t i = 0; i + 1 < contexts.size(); i += 2) {
    EXPECT_EQ(index.OverlapCount(contexts[i], contexts[i + 1]),
              naive[i].AndCount(naive[i + 1]))
        << contexts[i].ToBitString() << " x "
        << contexts[i + 1].ToBitString();
  }
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    for (size_t v = 0; v < schema.attribute(a).domain_size(); ++v) {
      BitVector want(dataset.num_rows());
      for (uint32_t row = 0; row < dataset.num_rows(); ++row) {
        if (dataset.code(row, a) == v) want.Set(row);
      }
      ASSERT_EQ(index.ValueBitmap(a, v), want)
          << "attr " << a << " value " << v;
    }
  }
}

TEST(PopulationEquivalenceTest, GridDatasetAgreesOnEveryProbe) {
  ExpectIndexMatchesRowScan(testing_util::MakeSpreadGridDataset().dataset,
                            /*seed=*/11, /*num_trials=*/60);
}

TEST(PopulationEquivalenceTest, MultiChunkSalaryDatasetAgreesOnEveryProbe) {
  ExpectIndexMatchesRowScan(testing_util::MultiChunkSalaryDataset(),
                            /*seed=*/13, /*num_trials=*/12);
}

}  // namespace
}  // namespace pcor
