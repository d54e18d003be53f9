#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/context/sharded_population_index.h"
#include "src/search/pcor.h"

namespace pcor {

/// \brief One immutable, versioned view of the stream: everything sealed
/// as of `epoch` (= the sealed row count, so epoch ids are totally ordered
/// and self-describing). Pinning a snapshot (holding the shared_ptr) keeps
/// its segments, probe and engine alive while appends and later seals
/// continue — the snapshot-consistency half of the streaming contract.
/// Snapshots share unchanged segments structurally: sealing copies the
/// segment *list* (cheap shared_ptr vector), never segment contents.
struct EpochSnapshot {
  uint64_t epoch = 0;
  /// The sealed rows, in stream order, partitioned at (compacted) seal
  /// points (probe->segments()) and composed into one global row space,
  /// scattering on the stream's one pool. Null iff epoch == 0 (nothing
  /// sealed — no data to probe, no release can run).
  std::shared_ptr<const ShardedPopulationIndex> probe;
  /// Null iff epoch == 0.
  std::shared_ptr<const PcorEngine> engine;

  size_t num_rows() const { return static_cast<size_t>(epoch); }
  /// \brief Materializes sealed row `row` (tests, oracles, tooling — not
  /// a hot path; probes go through `probe`).
  Row RowAt(uint32_t row) const;
};

/// \brief Lifetime counters of one streaming engine.
struct StreamingStats {
  uint64_t epoch = 0;          ///< current sealed epoch (sealed row count)
  size_t buffered_rows = 0;    ///< appended but not yet sealed
  uint64_t appends = 0;        ///< rows ever appended
  uint64_t seals = 0;          ///< SealEpoch calls that advanced the epoch
  size_t segments = 0;         ///< segment fan-out of the current snapshot
  uint64_t compactions = 0;    ///< segment merges performed at seals
  /// Sealed epochs whose memo entries survive seals: the current one and
  /// the one before it (see SealEpoch).
  size_t retained_epochs = 0;
  size_t cache_invalidations = 0;  ///< memo entries swept at seals
};

/// \brief PCOR over data that arrives forever: appends land in a mutable
/// tail, SealEpoch turns the accumulated tail into a new immutable epoch
/// snapshot, and releases run on a pinned snapshot's engine
/// (Pin()->engine). The engine charges no epsilon: a streaming PcorServer
/// is the one path that charges a stream's releases and numbers them.
///
/// Contracts (tested, see tests/search/streaming_engine_test.cc):
///   - **Snapshot consistency.** A release (or batch) pinned to epoch k is
///     bit-identical to the same release against a fresh load-once engine
///     over exactly the k sealed rows — for any shard count and
///     thread count, any seal cadence, any `max_segments`, and
///     regardless of appends/seals racing the release.
///   - **Determinism.** Epochs are content-addressed (epoch id = sealed
///     row count) and seeds travel with requests, so identical
///     append/seal/query interleavings at epoch granularity produce
///     bit-identical releases at any thread count.
///   - **Stale-epoch isolation.** The shared verifier memo keys every
///     entry by (epoch, context); a query at epoch e can only see entries
///     computed at epoch e. Epoch retirement (see SealEpoch) is storage
///     reclamation, not a correctness mechanism.
///
/// Costs, stated plainly: SealEpoch indexes only the tail rows into a new
/// immutable segment — O(tail), plus amortized O(log total) per row of
/// on-seal compaction that keeps probe fan-out bounded. Compaction runs
/// inside SealEpoch, outside the append lock, and replaces segments only
/// in the *new* snapshot's list, so pinned snapshots keep theirs. Two
/// deterministic rules, both depending only on segment row counts:
///   - **Doubling.** A maximal trailing run of segments each smaller than
///     kMinSegmentRows merges into one once the run's combined rows reach
///     it, so each sealed row is re-copied O(log total) times overall even
///     at seal-per-append cadence.
///   - **Fan-out bound.** While the list exceeds `max_segments`, the
///     adjacent pair with the fewest combined rows merges (leftmost on
///     ties).
/// Earlier segments are shared with the previous snapshot, never copied.
/// Copy-on-seal (O(history) per seal) is max_segments = 1; the
/// streaming_seal bench enforces the default's advantage over it. Appends
/// are O(1) buffered.
///
/// One ThreadPool, created with the engine, serves every epoch: each
/// snapshot's probe scatters on it and its engine fans batches out on it.
///
/// Thread-safe: appends, seals, pins and releases may race freely from
/// any thread. The segment build runs *outside* the append lock — a seal
/// of any size never blocks concurrent appends beyond two pointer swaps
/// (seals serialize only with each other). While a seal is indexing its
/// tail rows, those rows are transiently neither buffered (they left the
/// tail) nor sealed (the epoch has not advanced) — stats() taken mid-seal
/// reflects that window honestly.
class StreamingPcorEngine {
 public:
  /// \brief Trailing segments smaller than this merge once they reach it
  /// together (the doubling rule; see the class comment).
  static constexpr size_t kMinSegmentRows = 1024;
  static constexpr size_t kDefaultMaxSegments = 64;

  /// \brief The detector must outlive the engine. `max_segments` (>= 1)
  /// bounds each snapshot's segment fan-out; 1 is copy-on-seal.
  StreamingPcorEngine(Schema schema, const OutlierDetector& detector,
                      size_t max_segments = kDefaultMaxSegments);

  const Schema& schema() const { return schema_; }

  /// \brief Buffers one row in the mutable tail after validating it
  /// against the schema (code count and ranges). The row is invisible to
  /// every probe until the next SealEpoch.
  Status Append(const std::vector<uint32_t>& codes, double metric);
  Status Append(const Row& row) { return Append(row.codes, row.metric); }
  /// \brief Buffers many rows atomically: the whole span is validated up
  /// front, then buffered under one lock acquisition — on error (the
  /// first invalid row) no row of the span is buffered.
  Status AppendRows(std::span<const Row> rows);

  /// \brief Seals every buffered row into a new immutable epoch snapshot
  /// and returns the new epoch id (= total sealed rows). A no-op
  /// returning the current epoch when nothing is buffered. The retain
  /// window is the new epoch and the one before it: every memo entry of
  /// an older epoch is swept (VerifierMemo::InvalidateEpochsBefore),
  /// counted as a cache *invalidation*, never an eviction. The previous
  /// epoch stays warm because in-flight batches are most likely still
  /// pinned to it; sweeping an epoch a batch is still pinned to is safe
  /// anyway — its lookups recompute instead of hit. The index build runs
  /// outside the append lock (see class comment).
  uint64_t SealEpoch();

  /// \brief Pins the current snapshot: the returned EpochSnapshot (and
  /// everything it references) stays valid and immutable for as long as
  /// the shared_ptr is held, no matter how many appends/seals/compactions
  /// follow.
  std::shared_ptr<const EpochSnapshot> Pin() const;

  uint64_t current_epoch() const;
  size_t buffered_rows() const;
  StreamingStats stats() const;

  /// \brief The shared epoch-keyed memo (for stats and tests).
  const std::shared_ptr<VerifierMemo>& memo() const { return memo_; }

 private:
  /// \brief Schema validation shared by Append and AppendRows.
  Status ValidateRow(const std::vector<uint32_t>& codes) const;

  Schema schema_;
  const OutlierDetector* detector_;
  size_t max_segments_;
  std::shared_ptr<VerifierMemo> memo_;
  std::shared_ptr<ThreadPool> pool_;

  // Guards the tail, the current snapshot and the two counters below.
  mutable std::mutex mu_;
  std::vector<Row> tail_;
  std::shared_ptr<const EpochSnapshot> snapshot_;
  uint64_t appends_ = 0;
  uint64_t seals_ = 0;

  // Serializes SealEpoch calls. Held across the whole (lock-free for
  // appenders) segment build; never taken by the append/pin/stats paths,
  // so a long seal cannot block them.
  std::mutex seal_mu_;
  // Mirrors for stats(): readable without touching seal_mu_ (a stats call
  // must never block behind an in-flight index build).
  std::atomic<uint64_t> compactions_{0};
  std::atomic<size_t> retained_epochs_{0};
};

}  // namespace pcor
