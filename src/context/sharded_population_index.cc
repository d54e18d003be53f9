#include "src/context/sharded_population_index.h"

#include <algorithm>
#include <atomic>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/context/row_gather.h"

namespace pcor {

namespace {
// Per-worker scratch for segment sub-probes. Each segment task fills it and
// deposits the bits out before returning, so a worker reusing it across
// tasks (even tasks from concurrent gathers) can never mix results.
thread_local PopulationScratch t_segment_scratch;
// Per-thread count buffer (segment count is unbounded with compaction
// disabled). Safe under nested ParallelFor: a thread blocked in an outer
// loop only drains chunks of its *own* loop, so its buffer is never reused
// by an unrelated gather mid-sum.
thread_local std::vector<size_t> t_segment_counts;

/// \brief Deposits `bits` (OR) into `*word`. `shared` marks the words a
/// neighboring segment's deposit may also touch — the edge words — which
/// go through atomic fetch_or; interior words have a single writer over a
/// zeroed destination.
inline void DepositWord(uint64_t* word, uint64_t bits, bool shared) {
  if (bits == 0) return;
  if (shared) {
    std::atomic_ref<uint64_t>(*word).fetch_or(bits,
                                              std::memory_order_relaxed);
  } else {
    *word |= bits;
  }
}

/// \brief ORs the first `count` bits of `src` into `*dst` starting at bit
/// `dst_begin`. Every source word lands across up to two destination words
/// (shift + carry); a word-aligned segment has shift 0 and no carry. OR
/// over disjoint bit sets commutes, so concurrent per-segment deposits
/// produce the same bits in any order. Relies on the BitVector invariant
/// that pad bits beyond size() are zero (the final carry of a segment whose
/// bits end mid-word is zero).
void OrShiftedInto(const BitVector& src, size_t count, size_t dst_begin,
                   BitVector* dst) {
  if (count == 0) return;
  const uint64_t* s = src.data();
  uint64_t* d = dst->mutable_data();
  const size_t src_words = (count + 63) / 64;
  const size_t base = dst_begin / 64;
  const size_t last = (dst_begin + count - 1) / 64;
  const size_t shift = dst_begin % 64;
  uint64_t carry = 0;
  for (size_t i = 0; i < src_words; ++i) {
    const size_t w = base + i;
    DepositWord(d + w, (s[i] << shift) | carry, w == base || w == last);
    carry = shift == 0 ? 0 : s[i] >> (64 - shift);
  }
  // The carry of the final source word is in-range only when the shifted
  // span spills into one more destination word; otherwise it is all pad
  // bits (zero) and the deposit is skipped.
  if (base + src_words <= last) DepositWord(d + base + src_words, carry, true);
}

/// \brief Non-owning alias: the classic index borrows the caller's dataset.
std::shared_ptr<const Dataset> Borrow(const Dataset& dataset) {
  return std::shared_ptr<const Dataset>(std::shared_ptr<void>(), &dataset);
}

/// \brief Word-aligned even split of `*dataset` into segments over it.
SegmentList SplitIntoShards(const std::shared_ptr<const Dataset>& dataset,
                            const ShardedIndexOptions& options) {
  const size_t num_rows = dataset->num_rows();
  size_t shards = options.shard_count == 0 ? DefaultShardCount(num_rows)
                                           : options.shard_count;
  shards = std::min(std::max<size_t>(shards, 1), kMaxShardCount);
  // Boundaries are the even split rounded down to a word multiple, a pure
  // function of (num_rows, shards). Rounding can make leading shards empty
  // on tiny datasets (rows < shards*64); empty shards probe correctly and
  // contribute zero rows, so the layout stays valid rather than special-
  // cased.
  SegmentList segments;
  segments.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const auto begin =
        static_cast<uint32_t>((s * num_rows / shards) & ~size_t{63});
    const auto end = static_cast<uint32_t>(
        s + 1 == shards ? num_rows
                        : ((s + 1) * num_rows / shards) & ~size_t{63});
    segments.push_back(MakeSegment(dataset, begin, end));
  }
  return segments;
}

}  // namespace

size_t DefaultShardCount(size_t num_rows) {
  const size_t pinned = strings::EnvSizeOr("PCOR_SHARD_COUNT", 0);
  if (pinned != 0) return std::min(pinned, kMaxShardCount);
  const size_t by_rows = std::max<size_t>(num_rows / kMinRowsPerShard, 1);
  return std::min({DefaultThreadCount(), by_rows, kMaxShardCount});
}

std::shared_ptr<const PopulationSegment> MakeSegment(
    std::shared_ptr<const Dataset> rows, uint32_t row_begin, uint32_t row_end) {
  PCOR_CHECK(rows != nullptr) << "a segment needs row storage";
  PopulationIndex index(*rows, row_begin, row_end);
  return std::make_shared<const PopulationSegment>(
      PopulationSegment{std::move(rows), std::move(index)});
}

void MergeSegments(SegmentList* segments, size_t begin, size_t end) {
  PCOR_CHECK(begin < end && end <= segments->size())
      << "merge range outside segment list";
  if (end - begin == 1) return;
  const Schema& schema = (*segments)[begin]->rows->schema();
  auto merged = std::make_shared<Dataset>(schema);
  Row row;
  row.codes.resize(schema.num_attributes());
  for (size_t s = begin; s < end; ++s) {
    const PopulationIndex& part = (*segments)[s]->index;
    for (uint32_t r = 0; r < part.num_rows(); ++r) {
      for (size_t a = 0; a < schema.num_attributes(); ++a) {
        row.codes[a] = part.RowCode(r, a);
      }
      row.metric = part.RowMetric(r);
      merged->AppendRow(row).CheckOK();
    }
  }
  auto segment = MakeSegment(std::move(merged));
  segments->erase(segments->begin() + static_cast<ptrdiff_t>(begin) + 1,
                  segments->begin() + static_cast<ptrdiff_t>(end));
  (*segments)[begin] = std::move(segment);
}

ShardedPopulationIndex::ShardedPopulationIndex(const Dataset& dataset,
                                               ShardedIndexOptions options)
    : ShardedPopulationIndex(Borrow(dataset),
                             SplitIntoShards(Borrow(dataset), options),
                             std::move(options.pool)) {}

ShardedPopulationIndex::ShardedPopulationIndex(const Schema& schema,
                                               SegmentList segments,
                                               std::shared_ptr<ThreadPool> pool)
    : ShardedPopulationIndex(std::make_shared<const Dataset>(schema),
                             std::move(segments), std::move(pool)) {}

ShardedPopulationIndex::ShardedPopulationIndex(
    std::shared_ptr<const Dataset> dataset, SegmentList segments,
    std::shared_ptr<ThreadPool> pool)
    : dataset_(std::move(dataset)),
      segments_(std::move(segments)),
      pool_(std::move(pool)) {
  PCOR_CHECK(!segments_.empty() && segments_.front() != nullptr)
      << "a composed probe needs a segment";
  segment_begin_.reserve(segments_.size() + 1);
  size_t next = 0;
  for (const auto& segment : segments_) {
    PCOR_CHECK(segment != nullptr) << "segments must be non-null";
    segment_begin_.push_back(static_cast<uint32_t>(next));
    next += segment->num_rows();
  }
  segment_begin_.push_back(static_cast<uint32_t>(next));
  parallel_ = segments_.size() > 1 && next >= kMinRowsPerShard;
}

ThreadPool* ShardedPopulationIndex::probe_pool() const {
  std::call_once(pool_once_, [this] {
    if (!pool_) pool_ = std::make_shared<ThreadPool>(DefaultThreadCount());
  });
  return pool_.get();
}

void ShardedPopulationIndex::RunOverSegments(
    const std::function<void(size_t)>& fn) const {
  const size_t n = segments_.size();
  if (!parallel_) {
    for (size_t s = 0; s < n; ++s) fn(s);
    return;
  }
  ThreadPool* pool = probe_pool();
  pool->ParallelFor(n, pool->num_threads(), fn);
}

size_t ShardedPopulationIndex::SegmentOf(uint32_t row) const {
  PCOR_CHECK(row < num_rows()) << "row outside the probe";
  // segment_begin_ is ascending; empty segments repeat a boundary, so the
  // covering (non-empty) segment is the last boundary <= row.
  const auto it =
      std::upper_bound(segment_begin_.begin(), segment_begin_.end(), row);
  return static_cast<size_t>(it - segment_begin_.begin()) - 1;
}

PopulationIndexStats ShardedPopulationIndex::MemoryStats() const {
  PopulationIndexStats stats;
  for (const auto& segment : segments_) {
    stats.bitmap_bytes += segment->index.MemoryStats().bitmap_bytes;
  }
  return stats;
}

void ShardedPopulationIndex::PopulationInto(const ContextVec& c,
                                            BitVector* population,
                                            BitVector* attr_union) const {
  if (segments_.size() == 1) {
    // One segment covers [0, num_rows) in an identical layout — delegate.
    segments_[0]->index.PopulationInto(c, population, attr_union);
    return;
  }
  population->Assign(num_rows(), false);
  attr_union->Assign(num_rows(), false);
  RunOverSegments([&](size_t s) {
    const PopulationSegment& segment = *segments_[s];
    segment.index.PopulationInto(c, &t_segment_scratch.population,
                                 &t_segment_scratch.attr_union);
    OrShiftedInto(t_segment_scratch.population, segment.num_rows(),
                  segment_begin_[s], population);
  });
}

template <typename CountFn>
size_t ShardedPopulationIndex::SumOverSegments(const CountFn& count) const {
  const size_t n = segments_.size();
  if (n == 1) return count(segments_[0]->index);
  auto& counts = t_segment_counts;
  if (counts.size() < n) counts.resize(n);
  RunOverSegments([&](size_t s) { counts[s] = count(segments_[s]->index); });
  // Gather in ascending segment order. Integer sums over disjoint row
  // ranges are order-insensitive anyway; the fixed order is the uniform
  // canonical-merge discipline every gather in this class follows.
  size_t total = 0;
  for (size_t s = 0; s < n; ++s) total += counts[s];
  return total;
}

size_t ShardedPopulationIndex::PopulationCount(const ContextVec& c) const {
  return SumOverSegments(
      [&](const PopulationIndex& index) { return index.PopulationCount(c); });
}

size_t ShardedPopulationIndex::OverlapCount(const ContextVec& c1,
                                            const ContextVec& c2) const {
  return SumOverSegments([&](const PopulationIndex& index) {
    return index.OverlapCount(c1, c2);
  });
}

const BitVector& ShardedPopulationIndex::ValueBitmap(size_t attr,
                                                     size_t value) const {
  if (segments_.size() == 1) {
    return segments_[0]->index.ValueBitmap(attr, value);
  }
  thread_local BitVector t_concat;
  t_concat.Assign(num_rows(), false);
  // Serial: a test/bench accessor, not a hot probe.
  for (size_t s = 0; s < segments_.size(); ++s) {
    const PopulationSegment& segment = *segments_[s];
    OrShiftedInto(segment.index.ValueBitmap(attr, value), segment.num_rows(),
                  segment_begin_[s], &t_concat);
  }
  return t_concat;
}

uint32_t ShardedPopulationIndex::RowCode(uint32_t row, size_t attr) const {
  const size_t s = SegmentOf(row);
  return segments_[s]->index.RowCode(row - segment_begin_[s], attr);
}

double ShardedPopulationIndex::RowMetric(uint32_t row) const {
  const size_t s = SegmentOf(row);
  return segments_[s]->index.RowMetric(row - segment_begin_[s]);
}

void ShardedPopulationIndex::GatherMetrics(const BitVector& population,
                                           std::vector<uint32_t>* row_ids,
                                           std::vector<double>* metric) const {
  PCOR_CHECK(population.size() == num_rows())
      << "population does not span the probe";
  const size_t count = population.Count();
  row_ids->resize(count);
  metric->resize(count);
  // One word loop per segment, in ascending segment order, each reading its
  // own metric column; a segment starting mid-word masks the edge word it
  // shares with its neighbor.
  size_t n = 0;
  for (size_t s = 0; s < segments_.size(); ++s) {
    n += internal::GatherRowRange(population.data(), segment_begin_[s],
                                  segment_begin_[s + 1],
                                  segments_[s]->index.metric_data(),
                                  row_ids->data() + n, metric->data() + n);
  }
}

}  // namespace pcor
