// Exact-equivalence fuzz between ShardedPopulationIndex and the unsharded
// PopulationIndex — the composed probe's correctness bar, mirroring
// population_equivalence_test.cc. Both layouts the probe serves are swept:
//   - computed shards (ShardedPopulationTest): word-aligned splits at shard
//     counts 1/2/7/64, where the gather deposits at shift 0;
//   - seal segments (SegmentedPopulationTest): boundaries at arbitrary row
//     counts — seal-per-row, bursty odd cuts, single segment — where the
//     gather shifts and ORs the shared edge words atomically, probed
//     serially and on an 8-worker pool.
// Every probe (PopulationInto, PopulationCount, OverlapCount, RowIdsOf,
// MetricOf, MetricWithTarget, ViewOf, ValueBitmap) plus the probe-level row
// accessors (RowCode, RowMetric, ExactContextOf, GatherMetrics) must be
// bit-identical, ExactContextOf must answer the row-membership test, and
// every population must equal the naive row scan. Random contexts are
// joined by the degenerate shapes (empty context, full context, one empty
// attribute, all-singleton exact contexts) whose populations straddle
// every boundary of the 80k-row salary datasets — large enough
// (>= kMinRowsPerShard) that sub-probes scatter over the pool.
// MergeSegments (compaction's primitive) must preserve all of it. The
// gather is also driven directly on hand-built bitmaps at segment edges
// (GatherMetricsTest), against a per-row RowMetric oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/context/sharded_population_index.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using testing_util::FuzzContexts;
using testing_util::MultiChunkSalaryDataset;
using testing_util::NaivePopulation;

/// \brief The layout-independent half of the fuzz: every probe and row
/// accessor of `probe` equals the unsharded `reference` over `dataset`, and
/// every population equals the naive row scan.
/// Row accessors and MetricWithTarget are checked at the rows adjacent to
/// every segment boundary plus random rows.
void ExpectEveryProbeAgrees(const Dataset& dataset,
                            const PopulationIndex& reference,
                            const ShardedPopulationIndex& probe,
                            uint64_t seed, int num_trials) {
  ASSERT_EQ(probe.num_rows(), dataset.num_rows());
  EXPECT_EQ(probe.segment_begin(probe.segment_count()), dataset.num_rows());
  const std::vector<ContextVec> contexts =
      FuzzContexts(dataset.schema(), seed, num_trials);
  BitVector ref_bits, probe_bits, ref_union, probe_union;
  PopulationScratch ref_scratch, probe_scratch;
  for (const ContextVec& c : contexts) {
    reference.PopulationInto(c, &ref_bits, &ref_union);
    probe.PopulationInto(c, &probe_bits, &probe_union);
    ASSERT_EQ(ref_bits, NaivePopulation(dataset, c)) << c.ToBitString();
    ASSERT_EQ(ref_bits, probe_bits) << c.ToBitString();
    EXPECT_EQ(reference.PopulationCount(c), probe.PopulationCount(c))
        << c.ToBitString();
    EXPECT_EQ(reference.RowIdsOf(c), probe.RowIdsOf(c)) << c.ToBitString();
    EXPECT_EQ(reference.MetricOf(c), probe.MetricOf(c)) << c.ToBitString();
    const PopulationView ref_view = reference.ViewOf(c, &ref_scratch);
    const PopulationView probe_view = probe.ViewOf(c, &probe_scratch);
    ASSERT_EQ(ref_view.population(), probe_view.population());
    ASSERT_TRUE(std::equal(ref_view.row_ids().begin(),
                           ref_view.row_ids().end(),
                           probe_view.row_ids().begin(),
                           probe_view.row_ids().end()));
    ASSERT_TRUE(std::equal(ref_view.metric().begin(), ref_view.metric().end(),
                           probe_view.metric().begin(),
                           probe_view.metric().end()));
  }
  for (size_t i = 0; i + 1 < contexts.size(); i += 2) {
    EXPECT_EQ(reference.OverlapCount(contexts[i], contexts[i + 1]),
              probe.OverlapCount(contexts[i], contexts[i + 1]))
        << contexts[i].ToBitString() << " x " << contexts[i + 1].ToBitString();
  }

  // MetricWithTarget under the full context (population = all rows), plus
  // the row accessors, across segment boundaries.
  const ContextVec full = context_ops::FullContext(dataset.schema());
  Rng row_rng(seed ^ 0xabcdefULL);
  std::vector<uint32_t> rows = {0,
                                static_cast<uint32_t>(dataset.num_rows() - 1)};
  for (size_t s = 1; s < probe.segment_count(); ++s) {
    const uint32_t begin = probe.segment_begin(s);
    if (begin > 0) rows.push_back(begin - 1);
    if (begin < dataset.num_rows()) rows.push_back(begin);
  }
  for (int t = 0; t < 8; ++t) {
    rows.push_back(
        static_cast<uint32_t>(row_rng.NextBounded(dataset.num_rows())));
  }
  std::vector<double> ref_metric, probe_metric;
  for (const uint32_t row : rows) {
    SCOPED_TRACE(::testing::Message() << "row " << row);
    for (size_t a = 0; a < dataset.schema().num_attributes(); ++a) {
      EXPECT_EQ(probe.RowCode(row, a), dataset.code(row, a));
    }
    EXPECT_EQ(probe.RowMetric(row), dataset.metric(row));
    EXPECT_EQ(probe.ExactContextOf(row), reference.ExactContextOf(row));
    EXPECT_EQ(contexts.back().Covers(probe.ExactContextOf(row)),
              context_ops::ContainsRow(dataset.schema(), dataset, row,
                                       contexts.back()));
    size_t ref_pos = 0, probe_pos = 0;
    const bool ref_found =
        reference.MetricWithTarget(full, row, &ref_metric, &ref_pos);
    const bool probe_found =
        probe.MetricWithTarget(full, row, &probe_metric, &probe_pos);
    ASSERT_EQ(ref_found, probe_found);
    if (ref_found) {
      EXPECT_EQ(ref_pos, probe_pos);
      EXPECT_EQ(ref_metric, probe_metric);
    }
  }
  for (size_t a = 0; a < dataset.schema().num_attributes(); ++a) {
    for (size_t v = 0; v < dataset.schema().attribute(a).domain_size(); ++v) {
      ASSERT_EQ(reference.ValueBitmap(a, v), probe.ValueBitmap(a, v))
          << "attr " << a << " value " << v;
    }
  }
}

// ---- Computed shards -----------------------------------------------------

void ExpectShardingAgrees(const Dataset& dataset, size_t shard_count,
                          uint64_t seed, int num_trials) {
  SCOPED_TRACE(::testing::Message() << "shards=" << shard_count);
  const PopulationIndex reference(dataset);
  ShardedIndexOptions options;
  options.shard_count = shard_count;
  const ShardedPopulationIndex sharded(dataset, options);
  ASSERT_EQ(sharded.segment_count(), std::min(shard_count, kMaxShardCount));

  // Layout invariants: word-aligned ascending boundaries covering exactly
  // [0, num_rows), with shard row spans matching each shard's own view.
  for (size_t s = 0; s < sharded.segment_count(); ++s) {
    EXPECT_EQ(sharded.segment_begin(s) % 64, 0u) << "shard " << s;
    ASSERT_LE(sharded.segment_begin(s), sharded.segment_begin(s + 1));
    EXPECT_EQ(sharded.segment(s).num_rows(),
              sharded.segment_begin(s + 1) - sharded.segment_begin(s));
  }
  EXPECT_EQ(sharded.segment_begin(0), 0u);

  ExpectEveryProbeAgrees(dataset, reference, sharded, seed, num_trials);
  // Bytes depend only on (rows, domains) and boundaries are word-aligned,
  // so the shard footprints sum to the reference's exactly.
  EXPECT_EQ(sharded.MemoryStats().bitmap_bytes,
            reference.MemoryStats().bitmap_bytes);
}

/// \brief The storage half of each (storage, count) test parameter. Dense
/// is the one storage there is; the pair is kept so that instance names and
/// printed parameters stay the same as when there were two storages.
enum class Storage { kDense };

using LayoutParam = std::tuple<Storage, size_t>;

class ShardedPopulationTest : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(ShardedPopulationTest, GridDatasetAgreesOnEveryProbe) {
  // 37 rows across up to 64 shards: all but the last shard round down to
  // row 0, so most shards are empty — the degenerate-layout path.
  ExpectShardingAgrees(testing_util::MakeSpreadGridDataset().dataset,
                       std::get<1>(GetParam()), /*seed=*/17,
                       /*num_trials=*/40);
}

TEST_P(ShardedPopulationTest, MultiChunkSalaryDatasetAgreesOnEveryProbe) {
  // 80k rows: every random population straddles all shard boundaries.
  ExpectShardingAgrees(MultiChunkSalaryDataset(), std::get<1>(GetParam()),
                       /*seed=*/19, /*num_trials=*/6);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, ShardedPopulationTest,
    ::testing::Combine(::testing::Values(Storage::kDense),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{7},
                                         size_t{64})),
    [](const auto& info) {
      return "dense_shards" + std::to_string(std::get<1>(info.param));
    });

TEST(DefaultShardCountTest, TinyDatasetsDefaultToOneShard) {
  // Without the env pin, the rows heuristic keeps sub-64Ki datasets on a
  // single shard regardless of core count (sharding them is pure dispatch
  // overhead).
  if (strings::EnvSizeOr("PCOR_SHARD_COUNT", 0) != 0) {
    GTEST_SKIP() << "PCOR_SHARD_COUNT pins the default";
  }
  EXPECT_EQ(DefaultShardCount(1000), 1u);
  EXPECT_EQ(DefaultShardCount(kMinRowsPerShard - 1), 1u);
  EXPECT_LE(DefaultShardCount(size_t{10} * 1024 * 1024), kMaxShardCount);
}

TEST(DefaultShardCountTest, ExplicitOptionIsHonoredExactly) {
  // Explicit shard_count bypasses both the env pin and the rows heuristic;
  // this is how tests force multi-shard layouts onto tiny datasets.
  auto grid = testing_util::MakeGridDataset();
  ShardedIndexOptions options;
  options.shard_count = 5;
  const ShardedPopulationIndex index(grid.dataset, options);
  EXPECT_EQ(index.segment_count(), 5u);
}

// ---- Seal segments -------------------------------------------------------

/// \brief Cuts `dataset` into segments at the given ascending interior
/// boundaries (each a row count, deliberately not word-aligned), each
/// segment owning a copy of its rows — the way a seal cadence would.
SegmentList SegmentsOf(const Dataset& dataset,
                       std::vector<uint32_t> boundaries) {
  boundaries.push_back(static_cast<uint32_t>(dataset.num_rows()));
  SegmentList segments;
  uint32_t begin = 0;
  for (const uint32_t end : boundaries) {
    auto rows = std::make_shared<Dataset>(dataset.schema());
    for (uint32_t r = begin; r < end; ++r) {
      rows->AppendRow(dataset.GetRow(r)).CheckOK();
    }
    segments.push_back(MakeSegment(std::move(rows)));
    begin = end;
  }
  return segments;
}

void ExpectSegmentationAgrees(const Dataset& dataset,
                              const std::vector<uint32_t>& boundaries,
                              size_t threads, uint64_t seed, int num_trials) {
  SCOPED_TRACE(::testing::Message() << "segments=" << boundaries.size() + 1
                                    << " threads=" << threads);
  const PopulationIndex reference(dataset);
  const ShardedPopulationIndex segmented(dataset.schema(),
                                         SegmentsOf(dataset, boundaries),
                                         std::make_shared<ThreadPool>(threads));
  ASSERT_EQ(segmented.segment_count(), boundaries.size() + 1);

  // Layout invariants: contiguous non-empty segments covering [0, rows),
  // beginning exactly at the seal points.
  for (size_t s = 0; s < segmented.segment_count(); ++s) {
    EXPECT_EQ(segmented.segment_begin(s), s == 0 ? 0u : boundaries[s - 1]);
    EXPECT_GT(segmented.segment(s).num_rows(), 0u);
  }

  ExpectEveryProbeAgrees(dataset, reference, segmented, seed, num_trials);
}

/// \brief Boundaries for a "bursty" cadence: uneven random seal points,
/// none word-aligned by construction (every cut is odd).
std::vector<uint32_t> BurstyBoundaries(size_t num_rows, uint64_t seed,
                                       size_t target_segments) {
  Rng rng(seed);
  std::vector<uint32_t> cuts;
  const size_t step = std::max<size_t>(num_rows / target_segments, 2);
  for (size_t at = step; at + 1 < num_rows; at += step) {
    const size_t jitter = rng.NextBounded(step / 2 + 1);
    uint32_t cut = static_cast<uint32_t>(at + jitter) | 1u;  // force odd
    if (cut >= num_rows) break;
    if (!cuts.empty() && cut <= cuts.back()) continue;
    cuts.push_back(cut);
  }
  return cuts;
}

class SegmentedPopulationTest : public ::testing::TestWithParam<LayoutParam> {
};

TEST_P(SegmentedPopulationTest, GridSealPerRowAgreesOnEveryProbe) {
  // 37 rows, 37 single-row segments: the seal-per-append worst case, every
  // boundary unaligned and every destination word shared by 64 deposits.
  const Dataset dataset = testing_util::MakeSpreadGridDataset().dataset;
  std::vector<uint32_t> per_row;
  for (uint32_t r = 1; r < dataset.num_rows(); ++r) per_row.push_back(r);
  ExpectSegmentationAgrees(dataset, per_row, std::get<1>(GetParam()),
                           /*seed=*/17, /*num_trials=*/40);
}

TEST_P(SegmentedPopulationTest, GridSingleSegmentDelegates) {
  ExpectSegmentationAgrees(testing_util::MakeSpreadGridDataset().dataset,
                           /*boundaries=*/{}, std::get<1>(GetParam()),
                           /*seed=*/23,
                           /*num_trials=*/40);
}

TEST_P(SegmentedPopulationTest, MultiChunkSalaryBurstyAgreesOnEveryProbe) {
  // 80k rows, uneven odd-offset seal points: boundaries fall mid-word, and
  // (with threads > 1) the stream is large enough that deposits scatter
  // over the pool — the atomic edge-word path under real concurrency.
  const Dataset dataset = MultiChunkSalaryDataset();
  ASSERT_GE(dataset.num_rows(), kMinRowsPerShard);
  ExpectSegmentationAgrees(dataset,
                           BurstyBoundaries(dataset.num_rows(), /*seed=*/31,
                                            /*target_segments=*/23),
                           std::get<1>(GetParam()), /*seed=*/19,
                           /*num_trials=*/4);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, SegmentedPopulationTest,
    ::testing::Combine(::testing::Values(Storage::kDense),
                       ::testing::Values(size_t{1}, size_t{8})),
    [](const auto& info) {
      return "dense_threads" + std::to_string(std::get<1>(info.param));
    });

// ---- Gather at segment edges ---------------------------------------------

/// \brief Segments of the given row counts over one grid schema, rows
/// cycling through the spread grid with a distinct metric per global row
/// (global row r carries metric 1000 + r), plus the concatenated dataset.
std::pair<SegmentList, Dataset> SegmentsOfSizes(
    const std::vector<uint32_t>& sizes) {
  const Dataset grid = testing_util::MakeSpreadGridDataset().dataset;
  Dataset all(grid.schema());
  SegmentList segments;
  uint32_t global = 0;
  for (const uint32_t size : sizes) {
    auto rows = std::make_shared<Dataset>(grid.schema());
    for (uint32_t r = 0; r < size; ++r, ++global) {
      Row row = grid.GetRow(global % grid.num_rows());
      row.metric = 1000.0 + global;
      rows->AppendRow(row).CheckOK();
      all.AppendRow(row).CheckOK();
    }
    segments.push_back(MakeSegment(std::move(rows)));
  }
  return {std::move(segments), std::move(all)};
}

TEST(GatherMetricsTest, SegmentEdgesMatchPerRowOracle) {
  // The gather walks each segment's words with its first and last word
  // masked at the segment's rows; these layouts put those masks at every
  // offset that matters: mid-word boundaries, 1-row segments, 63/64/65-row
  // segments on either side of a word, and empty segments.
  const std::vector<std::vector<uint32_t>> layouts = {
      {5, 70, 200, 11},
      std::vector<uint32_t>(70, 1),
      {63, 64, 65},
      {65, 64, 63},
      {64, 64},
      {1, 63, 1, 64, 1, 65, 1},
      {30, 0, 40},
      {0, 64, 0, 0, 1},
      {64, 0, 65, 0},
  };
  for (const std::vector<uint32_t>& sizes : layouts) {
    auto [segments, all] = SegmentsOfSizes(sizes);
    const ShardedPopulationIndex probe(all.schema(), std::move(segments),
                                       std::make_shared<ThreadPool>(1));
    const PopulationIndex single(all);
    const size_t n = all.num_rows();
    ASSERT_EQ(probe.num_rows(), n);

    BitVector every(n, true);
    BitVector none(n, false);
    BitVector edges(n, false);
    for (size_t s = 0; s < probe.segment_count(); ++s) {
      if (probe.segment(s).num_rows() == 0) continue;
      edges.Set(probe.segment_begin(s));
      edges.Set(probe.segment_begin(s + 1) - 1);
    }
    for (const BitVector* bits : {&every, &none, &edges}) {
      SCOPED_TRACE(::testing::Message()
                   << "segments=" << sizes.size() << " rows=" << n
                   << " set=" << bits->Count());
      std::vector<uint32_t> want_ids;
      std::vector<double> want_metric;
      bits->ForEachSetBit([&](uint32_t row) {
        want_ids.push_back(row);
        want_metric.push_back(probe.RowMetric(row));
        EXPECT_EQ(probe.RowMetric(row), 1000.0 + row);
      });
      // Stale contents longer than the result must not survive the call.
      std::vector<uint32_t> ids(n + 7, 0xdeadbeef);
      std::vector<double> metric(n + 7, -1.0);
      probe.GatherMetrics(*bits, &ids, &metric);
      EXPECT_EQ(ids, want_ids);
      EXPECT_EQ(metric, want_metric);
      single.GatherMetrics(*bits, &ids, &metric);
      EXPECT_EQ(ids, want_ids);
      EXPECT_EQ(metric, want_metric);
    }
  }
}

TEST(MergeSegmentsTest, MergingPreservesEveryProbe) {
  // Compaction's primitive: merging any adjacent range must leave the
  // composed probe bit-identical — here checked by merging a middle range
  // of a seal-per-row layout and re-running the full equivalence sweep.
  const Dataset dataset = testing_util::MakeSpreadGridDataset().dataset;
  std::vector<uint32_t> per_row;
  for (uint32_t r = 1; r < dataset.num_rows(); ++r) per_row.push_back(r);
  auto segments = SegmentsOf(dataset, per_row);
  const size_t before = segments.size();
  MergeSegments(&segments, 5, 20);
  ASSERT_EQ(segments.size(), before - 14);
  EXPECT_EQ(segments[5]->num_rows(), 15u);

  const PopulationIndex reference(dataset);
  const ShardedPopulationIndex probe(dataset.schema(), std::move(segments),
                                     std::make_shared<ThreadPool>(1));
  EXPECT_EQ(probe.segment_begin(5), 5u);
  ExpectEveryProbeAgrees(dataset, reference, probe, /*seed=*/29,
                         /*num_trials=*/20);
  for (uint32_t r = 0; r < dataset.num_rows(); ++r) {
    EXPECT_EQ(probe.RowMetric(r), dataset.metric(r)) << "row " << r;
  }
}

}  // namespace
}  // namespace pcor
