#pragma once

#include <span>
#include <vector>

#include "src/common/bitvector.h"
#include "src/context/context.h"
#include "src/data/dataset.h"

namespace pcor {

class ThreadPool;

/// \brief The index's storage: one flat BitVector per (attribute, value),
/// the only one there is. Kept, with PopulationProbe::storage(), only
/// because perfbench's forwarding probe overrides storage(); both go when
/// the benchmark is next changed (ROADMAP item 3).
enum class IndexStorage { kDense };

/// \brief Working-set accounting for benchmarks.
struct PopulationIndexStats {
  size_t bitmap_bytes = 0;  ///< heap bytes held by the value bitmaps
};

/// \brief Caller-owned scratch buffers for allocation-free population
/// probes. Reuse one instance per thread (or per tight loop): after a few
/// probes every buffer has reached its steady-state capacity and ViewOf /
/// PopulationInto perform zero heap allocations.
struct PopulationScratch {
  BitVector population;        ///< the result bitmap
  BitVector attr_union;        ///< per-attribute OR accumulator
  std::vector<uint32_t> row_ids;
  std::vector<double> metric;
};

/// \brief A materialized population, borrowing a PopulationScratch.
///
/// Valid only until the scratch is reused or destroyed; never store one.
/// `row_ids` is ascending and `metric[i]` is the metric value of
/// `row_ids[i]` — the contiguous span the detectors consume.
class PopulationView {
 public:
  PopulationView() = default;
  PopulationView(const BitVector* population,
                 std::span<const uint32_t> row_ids,
                 std::span<const double> metric)
      : population_(population), row_ids_(row_ids), metric_(metric) {}

  const BitVector& population() const { return *population_; }
  std::span<const uint32_t> row_ids() const { return row_ids_; }
  std::span<const double> metric() const { return metric_; }
  size_t size() const { return row_ids_.size(); }
  bool empty() const { return row_ids_.empty(); }

 private:
  const BitVector* population_ = nullptr;
  std::span<const uint32_t> row_ids_;
  std::span<const double> metric_;
};

/// \brief Probe interface over a population store: everything the verifier,
/// utilities and context-space algorithms need from "the index", abstracted
/// so the single-box PopulationIndex and the composed ShardedPopulationIndex
/// interchange freely. Implementations must be bit-identical to each other
/// on every probe — the equivalence fuzz suites enforce it; virtual
/// dispatch costs nanoseconds against probes that walk O(rows/64) words
/// minimum.
///
/// The value-returning helpers (PopulationOf, RowIdsOf, MetricOf,
/// MetricWithTarget, ViewOf) are defined once here over the virtual core,
/// so every implementation inherits identical materialization behavior.
class PopulationProbe {
 public:
  virtual ~PopulationProbe() = default;

  /// \brief The backing dataset. A row-range index reports its slice
  /// through num_rows(), never through a narrowed dataset; composed probes
  /// whose rows live in several datasets (the streaming layer's epoch
  /// probes) return a zero-row schema anchor instead. Callers must
  /// therefore reach row data through RowCode / RowMetric / GatherMetrics,
  /// never through dataset() — the anchor carries only the schema.
  virtual const Dataset& dataset() const = 0;
  const Schema& schema() const { return dataset().schema(); }
  /// \brief Rows this probe spans — the local row space of its bitmaps.
  virtual size_t num_rows() const = 0;
  /// \brief Always kDense; see IndexStorage.
  virtual IndexStorage storage() const { return IndexStorage::kDense; }

  /// \brief Heap footprint of the value bitmaps.
  virtual PopulationIndexStats MemoryStats() const = 0;

  /// \brief Fills `*population` with the bitmap of rows selected by `c`,
  /// using `*attr_union` as scratch. Allocation-free once the two
  /// BitVectors have reached dataset size. The contents of `*attr_union`
  /// after the call are unspecified (it is an accumulator, not an output).
  virtual void PopulationInto(const ContextVec& c, BitVector* population,
                              BitVector* attr_union) const = 0;

  /// \brief |D_C| without materializing row ids.
  virtual size_t PopulationCount(const ContextVec& c) const = 0;

  /// \brief |D_C1 ∩ D_C2| — the paper's overlap utility numerator.
  virtual size_t OverlapCount(const ContextVec& c1,
                              const ContextVec& c2) const = 0;

  /// \brief Bitmap of rows matching attribute value (attr, value) — exposed
  /// for tests and micro-benchmarks. May be materialized into a
  /// thread_local buffer; the reference is invalidated by the next
  /// ValueBitmap call on the same thread.
  virtual const BitVector& ValueBitmap(size_t attr, size_t value) const = 0;

  /// \brief Attribute code of local row `row` — the probe-level row
  /// accessor call sites use instead of dataset().code(), so probes whose
  /// rows are scattered over several datasets answer correctly.
  virtual uint32_t RowCode(uint32_t row, size_t attr) const = 0;

  /// \brief Metric value of local row `row` (same contract as RowCode).
  virtual double RowMetric(uint32_t row) const = 0;

  /// \brief Replaces `*row_ids` / `*metric` with the set rows of
  /// `population` (ascending, local row space) and their metric values —
  /// the materialization primitive behind ViewOf / MetricOf /
  /// MetricWithTarget.
  virtual void GatherMetrics(const BitVector& population,
                             std::vector<uint32_t>* row_ids,
                             std::vector<double>* metric) const = 0;

  /// \brief Shared worker pool for scatter probes, or nullptr when this
  /// probe runs serially. The engine runs its batch fan-out on it, so one
  /// engine never owns two pools.
  virtual ThreadPool* probe_pool() const { return nullptr; }

  /// \brief The exact context of local row `row` — one chosen value per
  /// attribute, the row's own codes (context_ops::ExactContext lifted to
  /// the probe so it works for composed probes too).
  /// Context `c` selects the row iff `c.Covers(ExactContextOf(row))`.
  ContextVec ExactContextOf(uint32_t row) const;

  /// \brief Materializes D_C (bitmap, row ids, metric values) into
  /// `*scratch` and returns a view over it — the zero-allocation probe.
  PopulationView ViewOf(const ContextVec& c, PopulationScratch* scratch) const;

  /// \brief Bitmap of rows selected by context `c`.
  BitVector PopulationOf(const ContextVec& c) const;

  /// \brief Row ids selected by `c`, ascending (local row space).
  std::vector<uint32_t> RowIdsOf(const ContextVec& c) const;

  /// \brief Metric values of the population, aligned with RowIdsOf order.
  std::vector<double> MetricOf(const ContextVec& c) const;

  /// \brief Metric values plus the position of row `v_row` inside them.
  /// Returns false when `v_row` is not in the population.
  bool MetricWithTarget(const ContextVec& c, uint32_t v_row,
                        std::vector<double>* metric,
                        size_t* v_position) const;
};

/// \brief Bitmap index mapping contexts to their populations.
///
/// For each (attribute, value) pair the index holds one BitVector over the
/// dataset's rows. A context's population D_C is then
///   AND over attributes ( OR over the attribute's chosen values )
/// computed word-wise — O(t * n/64) per context instead of a full row scan.
/// This is the workhorse under the outlier verification f_M and both
/// utility functions.
///
/// The scratch-based entry points (PopulationInto, ViewOf) are the hot
/// path: they fill caller-owned buffers and allocate nothing in steady
/// state. The value-returning methods are thin wrappers kept for
/// convenience and tests.
class PopulationIndex : public PopulationProbe {
 public:
  /// \brief `row_end` value meaning "through the dataset's last row".
  static constexpr uint32_t kAllRows = UINT32_MAX;

  /// \brief Indexes dataset rows [row_begin, min(row_end, num_rows)),
  /// stored in a local row space where bit i means dataset row
  /// row_begin + i. The defaults index the whole dataset. All probes
  /// answer in the local row space; ShardedPopulationIndex composes
  /// row-range indexes into one global row space. The dataset is not
  /// owned and must outlive the index.
  explicit PopulationIndex(const Dataset& dataset, uint32_t row_begin = 0,
                           uint32_t row_end = kAllRows);

  const Dataset& dataset() const override { return *dataset_; }
  size_t num_rows() const override { return num_local_rows_; }

  PopulationIndexStats MemoryStats() const override;

  void PopulationInto(const ContextVec& c, BitVector* population,
                      BitVector* attr_union) const override;

  size_t PopulationCount(const ContextVec& c) const override;

  size_t OverlapCount(const ContextVec& c1,
                      const ContextVec& c2) const override;

  const BitVector& ValueBitmap(size_t attr, size_t value) const override;

  uint32_t RowCode(uint32_t row, size_t attr) const override {
    return dataset_->code(row_begin_ + row, attr);
  }
  double RowMetric(uint32_t row) const override {
    return dataset_->metric(row_begin_ + row);
  }
  void GatherMetrics(const BitVector& population,
                     std::vector<uint32_t>* row_ids,
                     std::vector<double>* metric) const override;

  /// \brief The metric column of the indexed rows: element i is the metric
  /// of local row i. Lets a composed probe gather a segment's values
  /// through one pointer instead of a RowMetric call per row.
  const double* metric_data() const {
    return dataset_->metric_column().data() + row_begin_;
  }

 private:
  const Dataset* dataset_;
  uint32_t row_begin_ = 0;       // first dataset row this index covers
  size_t num_local_rows_ = 0;    // rows covered: [row_begin_, row_begin_+n)
  // bitmaps_[attr][value] = local rows where
  // dataset.code(row_begin_ + row, attr) == value.
  std::vector<std::vector<BitVector>> bitmaps_;
};

}  // namespace pcor
