#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/common/threading.h"
#include "src/context/population_index.h"

namespace pcor {

/// \brief Hard cap on computed shards per index, far above any sane
/// configuration (256 shards x 64Ki rows already covers 16M rows).
inline constexpr size_t kMaxShardCount = 256;

/// \brief Composed probes smaller than this probe serially: a per-segment
/// task costs a dispatch plus a word loop, and under 64Ki rows the dispatch
/// wins. The same threshold keeps the automatic shard count from splitting
/// small datasets. Explicit shard counts (option or PCOR_SHARD_COUNT) are
/// always honored exactly, which is how tests force multi-segment layouts
/// onto tiny datasets.
inline constexpr size_t kMinRowsPerShard = size_t{64} * 1024;

/// \brief Shard count for a dataset of `num_rows`: the PCOR_SHARD_COUNT env
/// var when set (clamped to [1, kMaxShardCount]), else DefaultThreadCount()
/// clamped so no shard drops below kMinRowsPerShard. Tiny datasets therefore
/// default to one shard — sharding them would only add dispatch overhead —
/// while the env pin still forces any layout for equivalence testing.
size_t DefaultShardCount(size_t num_rows);

/// \brief One part of a ShardedPopulationIndex: a PopulationIndex over a row
/// range of shared row storage. A computed shard ranges over the caller's
/// dataset (held through a non-owning alias); a streaming segment owns the
/// rows one seal (or one compaction of several seals) contributed.
/// Segments are immutable and shared structurally across epoch snapshots.
struct PopulationSegment {
  std::shared_ptr<const Dataset> rows;  ///< storage `index` ranges over
  PopulationIndex index;                ///< local row space of this segment

  size_t num_rows() const { return index.num_rows(); }
};

using SegmentList = std::vector<std::shared_ptr<const PopulationSegment>>;

/// \brief Builds the segment over rows [row_begin, row_end) of `*rows`
/// (the defaults take every row). Cost is O(rows indexed).
std::shared_ptr<const PopulationSegment> MakeSegment(
    std::shared_ptr<const Dataset> rows, uint32_t row_begin = 0,
    uint32_t row_end = PopulationIndex::kAllRows);

/// \brief Replaces segments [begin, end) of `*segments` with one merged
/// segment: rows copied into a fresh Dataset, index rebuilt — O(rows of
/// the merged range). The streaming compaction policy's primitive. No-op
/// when the range is a single segment.
void MergeSegments(SegmentList* segments, size_t begin, size_t end);

/// \brief Construction knobs for the classic (computed-split) layout.
struct ShardedIndexOptions {
  /// Number of row-range shards. 0 = DefaultShardCount(num_rows); an
  /// explicit value is honored exactly (clamped to kMaxShardCount).
  size_t shard_count = 0;
  /// Worker pool probes scatter on (and engines fan batches out on). Null
  /// means the index owns one pool of DefaultThreadCount() workers,
  /// created on first use.
  std::shared_ptr<ThreadPool> pool;
};

/// \brief The population probe over an ordered list of segments, composed
/// into one global row space: segment s covers the global rows following
/// segment s-1's. Probes scatter one sub-probe per segment across the
/// pool and gather in **fixed ascending segment order** — the same
/// canonical-merge discipline the SIMD kernels use for lane reductions,
/// lifted to segment granularity.
///
/// Two layouts use it. Classic engines split their dataset into
/// word-aligned computed shards (DefaultShardCount, PCOR_SHARD_COUNT); the
/// streaming layer appends one segment per seal, at arbitrary row counts.
///
/// Determinism contract: every probe is bit-identical to an unsharded
/// PopulationIndex over the same rows, for any layout and any
/// thread count (including 1). The pieces that make this hold:
///   - the layout depends only on the construction inputs (row counts,
///     shard count, seal points), never on thread scheduling;
///   - counts are sums over disjoint row ranges of exact per-segment counts
///     (integer addition — associative, no ordering sensitivity);
///   - populations gather by shifted OR of each segment's local bitmap
///     into the global bitmap. A segment starting mid-word shares its edge
///     words with its neighbors; those are deposited with atomic fetch_or,
///     and OR over disjoint bit sets commutes, so scatter order cannot
///     perturb the result. A computed shard starts word-aligned: shift 0.
/// The fuzz suite (tests/context/sharded_population_test.cc), the streaming
/// equivalence gates and the never-relaxed gate in bench_million_rows
/// enforce the contract.
///
/// Thread-safe for concurrent probes, like PopulationIndex. Probes may
/// themselves run on pool workers (the engine's batch fan-out does this):
/// ThreadPool::ParallelFor is reentrancy-safe, so a worker blocked in an
/// outer loop drains inner segment probes itself rather than deadlocking on
/// a saturated queue.
class ShardedPopulationIndex : public PopulationProbe {
 public:
  /// \brief Classic layout: `dataset` split into word-aligned shards per
  /// `options`. The dataset is not owned and must outlive the index.
  explicit ShardedPopulationIndex(const Dataset& dataset,
                                  ShardedIndexOptions options = {});

  /// \brief Composed layout over `segments` (in global row order).
  /// dataset() returns a zero-row anchor carrying `schema` —
  /// row data lives in the segments and is reached through RowCode /
  /// RowMetric / GatherMetrics. A null `pool` behaves as in
  /// ShardedIndexOptions.
  ShardedPopulationIndex(const Schema& schema, SegmentList segments,
                         std::shared_ptr<ThreadPool> pool);

  const Dataset& dataset() const override { return *dataset_; }
  size_t num_rows() const override { return segment_begin_.back(); }

  /// \brief Sum of the segments' footprints.
  PopulationIndexStats MemoryStats() const override;

  void PopulationInto(const ContextVec& c, BitVector* population,
                      BitVector* attr_union) const override;

  size_t PopulationCount(const ContextVec& c) const override;

  size_t OverlapCount(const ContextVec& c1,
                      const ContextVec& c2) const override;

  /// \brief Global (attr, value) bitmap, concatenated from the segments
  /// into a thread_local buffer; invalidated by the next call on this
  /// thread.
  const BitVector& ValueBitmap(size_t attr, size_t value) const override;

  uint32_t RowCode(uint32_t row, size_t attr) const override;
  double RowMetric(uint32_t row) const override;
  void GatherMetrics(const BitVector& population,
                     std::vector<uint32_t>* row_ids,
                     std::vector<double>* metric) const override;

  /// \brief The pool probes scatter on: the injected one, else the index's
  /// own, created on first use. Thread-safe; never null.
  ThreadPool* probe_pool() const override;

  size_t segment_count() const { return segments_.size(); }
  const PopulationSegment& segment(size_t s) const { return *segments_[s]; }
  /// \brief First global row of segment `s`; segment_begin(segment_count())
  /// is num_rows(). Computed shards begin at multiples of 64.
  uint32_t segment_begin(size_t s) const { return segment_begin_[s]; }
  const SegmentList& segments() const { return segments_; }

 private:
  ShardedPopulationIndex(std::shared_ptr<const Dataset> dataset,
                         SegmentList segments,
                         std::shared_ptr<ThreadPool> pool);

  /// \brief Index of the non-empty segment containing global row `row`.
  size_t SegmentOf(uint32_t row) const;
  /// \brief Sum of count(segment index) over every segment.
  template <typename CountFn>
  size_t SumOverSegments(const CountFn& count) const;
  /// \brief Runs fn(s) for every segment: scattered over probe_pool() when
  /// there is more than one segment and at least kMinRowsPerShard rows,
  /// serially otherwise. Gathering stays with callers, who read
  /// per-segment results in ascending segment order.
  void RunOverSegments(const std::function<void(size_t)>& fn) const;

  std::shared_ptr<const Dataset> dataset_;
  SegmentList segments_;
  std::vector<uint32_t> segment_begin_;  // size segment_count()+1
  bool parallel_ = false;

  mutable std::once_flag pool_once_;
  mutable std::shared_ptr<ThreadPool> pool_;  // set once via pool_once_
};

}  // namespace pcor
