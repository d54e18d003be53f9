#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/stats.h"
#include "src/data/dataset.h"
#include "src/data/schema.h"
#include "src/exp/trace.h"
#include "src/serve/server.h"

namespace pcor {

/// \brief Open-loop dispatch loop: fires every trace event at its
/// scheduled time on the given Clock, regardless of how long earlier
/// dispatches took. A driver that falls behind fires late events
/// immediately (SleepUntil on a past deadline returns at once — it never
/// re-schedules or drops them) and records the lag, which is exactly the
/// queueing delay a closed-loop client would silently absorb.
///
/// The driver is clock-agnostic: benches run it on a RealClock; tests run
/// it on a VirtualClock, where auto-advance mode replays any trace
/// deterministically with zero wall-clock sleeps and manual mode
/// single-steps a dispatch loop running on its own thread.
class TraceDriver {
 public:
  /// \brief How the dispatch loop went. `late` counts events fired past
  /// their schedule; `max_lag_us`/`total_lag_us` quantify by how much.
  struct Stats {
    size_t dispatched = 0;
    size_t late = 0;
    int64_t max_lag_us = 0;
    int64_t total_lag_us = 0;
  };

  /// \brief Dispatch callback: the event, its scheduled time, and the
  /// clock reading at fire (fired_us >= scheduled_us always).
  using Handler = std::function<void(const TraceEvent& event,
                                     int64_t scheduled_us,
                                     int64_t fired_us)>;

  /// \brief Takes the event list (stable-sorted by at_us, so recorded
  /// order breaks timestamp ties) and the clock to schedule against.
  /// The clock must outlive the driver.
  TraceDriver(std::vector<TraceEvent> events, Clock* clock);

  /// \brief The dispatch order Run will use.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// \brief Dispatches every event in order on the calling thread:
  /// SleepUntil(at_us), then handler(event, at_us, now). Returns the lag
  /// accounting.
  Stats Run(const Handler& handler);

 private:
  std::vector<TraceEvent> events_;
  Clock* clock_;
};

/// \brief Deterministic synthetic row stream for replaying Append events:
/// row i's codes derive from SplitMix64Mix(seed, i) over the schema's
/// domains, and every `outlier_stride`-th row carries `outlier_metric`
/// (the rest draw small uniform metrics) — so replays know exactly which
/// row ids are plantable outliers: i % outlier_stride == 0.
std::function<Row(uint64_t)> MakeUniformRowSource(
    const Schema& schema, uint64_t seed, uint64_t outlier_stride = 17,
    double outlier_metric = 1'000.0);

/// \brief Per-tenant slice of a TraceReplayResult.
struct TenantReplayStats {
  std::string id;
  LatencyHistogram scheduled;  ///< scheduled-fire-time -> completion
  LatencyHistogram submitted;  ///< SubmitAsync-return -> completion
  size_t releases = 0;         ///< release events dispatched
  size_t released = 0;         ///< entries completed OK
  size_t failed = 0;           ///< entries completed with an error status
  size_t rejected_budget = 0;  ///< admissions refused: budget cap
  size_t rejected_other = 0;   ///< every other admission refusal
  size_t exceptions = 0;       ///< futures that rethrew a worker error
};

/// \brief ReplayTrace configuration.
struct TraceReplayOptions {
  /// Clock the dispatch loop schedules against. Null = a fresh RealClock
  /// owned by the replay (t=0 at replay start). Tests pass a VirtualClock
  /// for zero-sleep deterministic replays.
  Clock* clock = nullptr;
  /// Threads collecting completed futures (latency recording). The
  /// release payload digest is independent of this by the server's
  /// determinism contract — the streaming integration test replays at 1
  /// and 16 and asserts bit-identical digests.
  size_t collector_threads = 1;
  /// Synthesizes the i-th appended row (global append index). Required
  /// when the trace has Append events; see MakeUniformRowSource.
  std::function<Row(uint64_t)> row_source;
};

/// \brief Aggregate outcome of one open-loop trace replay.
struct TraceReplayResult {
  /// Both percentile families over every terminal release outcome
  /// (completion, failure, or admission rejection — rejections terminate
  /// at admission time). scheduled >= submitted pointwise: the scheduled
  /// latency is the submitted latency plus the dispatch lag, so any
  /// scheduled percentile dominates its submitted twin — the difference
  /// is the coordinated-omission gap closed-loop numbers hide.
  LatencyHistogram scheduled;
  LatencyHistogram submitted;
  TraceDriver::Stats driver;    ///< dispatch-loop lag accounting
  size_t releases = 0;          ///< release events dispatched
  size_t released = 0;          ///< entries completed OK
  size_t failed = 0;            ///< entries completed with error status
  size_t rejected_budget = 0;   ///< admissions refused: budget cap
  size_t rejected_other = 0;    ///< every other admission refusal
  size_t exceptions = 0;        ///< futures that rethrew a worker error
  size_t appends = 0;           ///< rows buffered via SubmitAppend
  size_t append_errors = 0;     ///< rows the stream refused
  size_t seals = 0;             ///< Seal events dispatched
  uint64_t final_epoch = 0;     ///< stream epoch after the last event
  /// Order-insensitive only across collector threading, order-SENSITIVE
  /// across payloads: a SplitMix64Mix fold over every release outcome in
  /// trace order (status; on success the full deterministic payload —
  /// context bits, epsilons, candidate/probe counts, utility, epoch,
  /// stream index). Two replays of the same trace are bit-identical iff
  /// their digests match.
  uint64_t release_digest = 0;
  double wall_seconds = 0.0;    ///< real wall time of the whole replay
  /// Per-tenant breakdown in order of first appearance in the trace.
  std::vector<TenantReplayStats> tenants;
};

/// \brief Folds one release outcome into the replay digest (exposed for
/// tests that want to pre-compute expected digests).
uint64_t DigestBatchEntry(const BatchEntry& entry);

/// \brief Replays `events` against `server` open-loop: the calling thread
/// runs the TraceDriver dispatch loop (sleeping on options.clock),
/// submitting releases / appends / seals as scheduled;
/// options.collector_threads background threads block on the returned
/// futures and record both latency families. Release events pick their
/// target row as outlier_pool[event.rows % pool.size()]. A Seal event
/// first waits for every in-flight release to complete: a micro-batch
/// pins whichever snapshot is current at dispatch, so sealing under open
/// releases would make their epoch a race, and streaming replays would
/// not be bit-identical.
///
/// Fails fast with kInvalidArgument (nothing dispatched) when the trace
/// has releases but the pool is empty, has appends but no
/// options.row_source, or has streaming events against a classic server.
Result<TraceReplayResult> ReplayTrace(PcorServer& server,
                                      std::span<const TraceEvent> events,
                                      std::span<const uint32_t> outlier_pool,
                                      const TraceReplayOptions& options = {});

}  // namespace pcor
