// Exact-equivalence fuzz between the dense and compressed population-index
// storages (the tentpole's correctness bar): on the same dataset, every
// probe — PopulationInto, PopulationCount, OverlapCount, RowIdsOf,
// ValueBitmap — must produce bit-identical results under both storages, on
// random contexts including the degenerate shapes (empty attribute, full
// context, all-singleton exact contexts that take the compressed fold fast
// path). Runs at grid scale for breadth and on a >64Ki-row salary dataset
// so populations span multiple compression chunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/context/population_index.h"
#include "src/data/salary_generator.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

void ExpectStoragesAgree(const Dataset& dataset, uint64_t seed,
                         int num_trials) {
  const PopulationIndex dense(dataset, IndexStorage::kDense);
  const PopulationIndex compressed(dataset, IndexStorage::kCompressed);
  ASSERT_EQ(dense.storage(), IndexStorage::kDense);
  ASSERT_EQ(compressed.storage(), IndexStorage::kCompressed);

  const Schema& schema = dataset.schema();
  const std::vector<ContextVec> contexts =
      testing_util::FuzzContexts(schema, seed, num_trials);

  BitVector dense_bits, compressed_bits, dense_union, compressed_union;
  for (const ContextVec& c : contexts) {
    dense.PopulationInto(c, &dense_bits, &dense_union);
    compressed.PopulationInto(c, &compressed_bits, &compressed_union);
    ASSERT_EQ(dense_bits, compressed_bits) << c.ToBitString();
    EXPECT_EQ(dense.PopulationCount(c), compressed.PopulationCount(c))
        << c.ToBitString();
    EXPECT_EQ(dense.RowIdsOf(c), compressed.RowIdsOf(c)) << c.ToBitString();
  }
  for (size_t i = 0; i + 1 < contexts.size(); i += 2) {
    EXPECT_EQ(dense.OverlapCount(contexts[i], contexts[i + 1]),
              compressed.OverlapCount(contexts[i], contexts[i + 1]))
        << contexts[i].ToBitString() << " x "
        << contexts[i + 1].ToBitString();
  }
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    for (size_t v = 0; v < schema.attribute(a).domain_size(); ++v) {
      ASSERT_EQ(dense.ValueBitmap(a, v), compressed.ValueBitmap(a, v))
          << "attr " << a << " value " << v;
    }
  }
}

TEST(PopulationEquivalenceTest, GridDatasetAgreesOnEveryProbe) {
  ExpectStoragesAgree(testing_util::MakeSpreadGridDataset().dataset,
                      /*seed=*/11, /*num_trials=*/60);
}

TEST(PopulationEquivalenceTest, MultiChunkSalaryDatasetAgreesOnEveryProbe) {
  ExpectStoragesAgree(testing_util::MultiChunkSalaryDataset(), /*seed=*/13,
                      /*num_trials=*/12);
}

TEST(PopulationEquivalenceTest, CompressedWorkingSetIsSmallerOnSparseData) {
  // High-cardinality domains (64/48/48 values) put every value bitmap at
  // ~1/48..1/64 density — well below the kArrayMax break-even, so chunks
  // compress to offset arrays at ~2 bytes per set bit (16/d of the dense
  // d·rows/8 footprint per attribute). The dense working set must shrink
  // by more than half (the bench enforces the same bar at million scale).
  SalaryDatasetSpec spec;
  spec.num_rows = 80'000;
  spec.num_jobs = 64;
  spec.num_employers = 48;
  spec.num_years = 48;
  spec.seed = 4242;
  auto generated = GenerateSalaryDataset(spec);
  ASSERT_TRUE(generated.ok());
  const PopulationIndex dense(generated->dataset, IndexStorage::kDense);
  const PopulationIndex compressed(generated->dataset,
                                   IndexStorage::kCompressed);
  const PopulationIndexStats dense_stats = dense.MemoryStats();
  const PopulationIndexStats compressed_stats = compressed.MemoryStats();
  EXPECT_LT(compressed_stats.bitmap_bytes, dense_stats.bitmap_bytes / 2);
  EXPECT_GT(compressed_stats.array_chunks, 0u);
  EXPECT_EQ(dense_stats.array_chunks, 0u);
}

TEST(PopulationEquivalenceTest, DefaultStorageHonorsEnvToggle) {
  // Dense is the default; PCOR_COMPRESSED_INDEX=1 selects compressed (the
  // *_forced_compressed ctest reruns). Both storages are exercised by
  // constructing with an explicit storage above, so here we only pin the
  // default's type to whatever the env resolves to.
  auto grid = testing_util::MakeGridDataset();
  const PopulationIndex index(grid.dataset);
  EXPECT_EQ(index.storage(), DefaultIndexStorage());
}

}  // namespace
}  // namespace pcor
