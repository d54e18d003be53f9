#include "src/search/streaming.h"

#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace pcor {

namespace {

/// \brief Applies the on-seal compaction rules (see StreamingPcorEngine)
/// to `*segments`, returning the number of merges performed.
/// Deterministic: depends only on the segment row counts, never on timing.
uint64_t CompactSegments(SegmentList* segments, size_t max_segments) {
  constexpr size_t kMinRows = StreamingPcorEngine::kMinSegmentRows;
  uint64_t merges = 0;
  // Rule 1 (doubling): merge the maximal trailing run of small segments,
  // but only once its combined rows reach kMinRows — the merged result
  // then leaves the "small" class, so each sealed row is re-copied
  // O(log total) times overall instead of once per subsequent seal.
  if (segments->size() >= 2) {
    size_t run_begin = segments->size();
    size_t run_rows = 0;
    while (run_begin > 0 &&
           (*segments)[run_begin - 1]->num_rows() < kMinRows) {
      --run_begin;
      run_rows += (*segments)[run_begin]->num_rows();
    }
    if (segments->size() - run_begin >= 2 && run_rows >= kMinRows) {
      MergeSegments(segments, run_begin, segments->size());
      ++merges;
    }
  }
  // Rule 2 (fan-out bound): smallest-adjacent-pair merges until the list
  // fits. Pair sizes roughly double as merges cascade, so the amortized
  // per-row cost stays logarithmic here too.
  while (segments->size() > max_segments) {
    size_t best = 0;
    size_t best_rows = std::numeric_limits<size_t>::max();
    for (size_t s = 0; s + 1 < segments->size(); ++s) {
      const size_t rows =
          (*segments)[s]->num_rows() + (*segments)[s + 1]->num_rows();
      if (rows < best_rows) {
        best = s;
        best_rows = rows;
      }
    }
    MergeSegments(segments, best, best + 2);
    ++merges;
  }
  return merges;
}

}  // namespace

Row EpochSnapshot::RowAt(uint32_t row) const {
  PCOR_CHECK(row < epoch) << "row outside the sealed prefix";
  Row out;
  for (size_t a = 0; a < probe->schema().num_attributes(); ++a) {
    out.codes.push_back(probe->RowCode(row, a));
  }
  out.metric = probe->RowMetric(row);
  return out;
}

StreamingPcorEngine::StreamingPcorEngine(Schema schema,
                                         const OutlierDetector& detector,
                                         size_t max_segments)
    : schema_(std::move(schema)),
      detector_(&detector),
      max_segments_(max_segments),
      memo_(std::make_shared<VerifierMemo>(VerifierOptions{})),
      pool_(std::make_shared<ThreadPool>(DefaultThreadCount())) {
  PCOR_CHECK(max_segments_ >= 1) << "max_segments must be at least 1";
  // Epoch 0: an empty sealed view — no segments, no probe, no engine.
  // Pin() is still total; its engine is null until the first seal.
  snapshot_ = std::make_shared<EpochSnapshot>();
}

Status StreamingPcorEngine::ValidateRow(
    const std::vector<uint32_t>& codes) const {
  // Validate eagerly, at the point the producer can still handle the
  // error — a bad row must never poison a later SealEpoch.
  if (codes.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        strings::Format("row has %zu codes, schema has %zu attributes",
                        codes.size(), schema_.num_attributes()));
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] >= schema_.attribute(i).domain_size()) {
      return Status::OutOfRange(strings::Format(
          "code %u out of range for attribute '%s' (domain size %zu)",
          codes[i], schema_.attribute(i).name.c_str(),
          schema_.attribute(i).domain_size()));
    }
  }
  return Status::OK();
}

Status StreamingPcorEngine::Append(const std::vector<uint32_t>& codes,
                                   double metric) {
  PCOR_RETURN_NOT_OK(ValidateRow(codes));
  std::lock_guard<std::mutex> lock(mu_);
  tail_.push_back(Row{codes, metric});
  ++appends_;
  return Status::OK();
}

Status StreamingPcorEngine::AppendRows(std::span<const Row> rows) {
  // Validate the whole span before buffering anything, so failure leaves
  // the tail exactly as it was — the atomicity the contract promises.
  for (const Row& row : rows) {
    PCOR_RETURN_NOT_OK(ValidateRow(row.codes));
  }
  std::lock_guard<std::mutex> lock(mu_);
  tail_.reserve(tail_.size() + rows.size());
  for (const Row& row : rows) {
    tail_.push_back(row);
    ++appends_;
  }
  return Status::OK();
}

uint64_t StreamingPcorEngine::SealEpoch() {
  // Seals serialize with each other only; appends keep landing in the
  // (fresh) tail while this seal indexes the rows it grabbed.
  std::lock_guard<std::mutex> seal_lock(seal_mu_);
  std::vector<Row> tail;
  std::shared_ptr<const EpochSnapshot> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tail_.empty()) return snapshot_->epoch;
    tail.swap(tail_);
    base = snapshot_;
  }

  // Build the new epoch outside mu_. Rows were validated at Append, so
  // AppendRow cannot fail here. The base snapshot cannot go stale under
  // us: only SealEpoch replaces snapshot_, and seal_mu_ is held.
  auto tail_rows = std::make_shared<Dataset>(schema_);
  for (const Row& row : tail) tail_rows->AppendRow(row).CheckOK();

  auto next = std::make_shared<EpochSnapshot>();
  next->epoch = base->epoch + tail.size();
  // Structural sharing: the new list copies shared_ptrs, never segments.
  SegmentList segments = base->probe ? base->probe->segments() : SegmentList{};
  segments.push_back(MakeSegment(std::move(tail_rows)));
  compactions_ += CompactSegments(&segments, max_segments_);
  next->probe = std::make_shared<const ShardedPopulationIndex>(
      schema_, std::move(segments), pool_);
  next->engine = std::make_shared<const PcorEngine>(next->probe, *detector_,
                                                    memo_, next->epoch);

  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = next;
    ++seals_;
  }

  // Retire every epoch older than the previous one (base, epoch 0 before
  // the first seal). Safe under pin — swept epochs recompute on lookup
  // instead of hitting — so this is memory reclamation only; correctness
  // lives in the (epoch, context) cache key.
  retained_epochs_.store(base->epoch == 0 ? 1 : 2, std::memory_order_relaxed);
  memo_->InvalidateEpochsBefore(base->epoch);
  return next->epoch;
}

std::shared_ptr<const EpochSnapshot> StreamingPcorEngine::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

uint64_t StreamingPcorEngine::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_->epoch;
}

size_t StreamingPcorEngine::buffered_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tail_.size();
}

StreamingStats StreamingPcorEngine::stats() const {
  StreamingStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.epoch = snapshot_->epoch;
    stats.buffered_rows = tail_.size();
    stats.appends = appends_;
    stats.seals = seals_;
    stats.segments = snapshot_->probe ? snapshot_->probe->segment_count() : 0;
  }
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.retained_epochs = retained_epochs_.load(std::memory_order_relaxed);
  stats.cache_invalidations = memo_->CacheStats().invalidations;
  return stats;
}

}  // namespace pcor
