#pragma once

// The repository benchmark: three workloads over the reduced salary data,
// each measured from outside through the public API of src/. See
// perfbench/README.md for the workloads, the metrics and what each
// per-layer metric is expected to move.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/context/population_index.h"
#include "src/exp/trace.h"
#include "src/outlier/detector.h"
#include "src/search/pcor.h"
#include "src/search/streaming.h"
#include "src/serve/server.h"

namespace perfbench {

using pcor::BatchEntry;
using pcor::PcorOptions;

// ---------------------------------------------------------------------------
// Command line and results.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double serve_rate = 200.0;   // serve-warm offered releases per second
  double stream_rate = 60.0;   // stream-churn offered releases per second
};

/// End-to-end metrics, printed by untraced runs. Every workload fills all.
/// release_p99_ms is printed but not part of the bounded result: on a
/// host whose speed drifts, its run-to-run spread exceeds any bound the
/// benchmark may set, so traced runs report it as a per-layer metric.
struct EndToEnd {
  double setup_s = 0.0;
  double releases_per_s = 0.0;
  double release_p50_ms = 0.0;
  double release_p99_ms = 0.0;
  double peak_rss_mb = 0.0;
};

/// Per-layer metrics, printed by traced runs. A metric a workload cannot
/// exercise (no trace driver on batch-cold, no stream on serve-warm) stays
/// 0. Names follow the src/ modules; see README.md for definitions.
struct Layers {
  // exp
  double driver_late_share = 0, driver_lag_p99_ms = 0;
  // serve
  double admit_us_p50 = 0, admit_us_p99 = 0;
  double queue_wait_ms_p50 = 0, queue_wait_ms_p99 = 0;
  double batch_size_mean = 0, batches = 0, queue_high_water = 0;
  double fanout_us_p50 = 0;
  // search
  double engine_release_ms_p50 = 0, engine_release_ms_p99 = 0;
  double release_p99_ms = 0;  // the untraced phase's, see EndToEnd
  double stage_starting_context_us = 0, stage_starting_context_share = 0;
  double stage_sampler_walk_us = 0, stage_sampler_walk_share = 0;
  double stage_score_us = 0, stage_score_share = 0;
  double stage_mechanism_us = 0, stage_mechanism_share = 0;
  double probes_per_release = 0, candidates_per_release = 0;
  // context
  double memo_hit_ratio = 0, memo_misses_per_release = 0;
  double memo_evictions = 0, memo_invalidations = 0, memo_resident_mb = 0;
  double probe_count_calls_per_release = 0, probe_count_us_per_call = 0;
  double probe_count_share = 0;
  double probe_into_us_per_call = 0, probe_gather_us_per_call = 0;
  double index_resident_mb = 0, index_build_s = 0;
  // outlier
  double detector_calls_per_release = 0, detector_ns_per_elem = 0;
  double detector_share = 0;
  // search (streaming)
  double stream_append_us_p99 = 0;
  double stream_seal_us_p50 = 0, stream_seal_us_p90 = 0;
  double seal_p50_ms = 0, seal_p90_ms = 0;
  double stream_segments = 0, stream_compactions = 0;
  double stream_memo_invalidations = 0;
  // validity of the per-layer numbers
  double trace_overhead_share = 0, trace_unattributed_share = 0;
  double trace_replay_mismatches = 0;
};

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  EndToEnd e2e;
  Layers layers;
  /// Inputs and host, printed on a line of their own before the result.
  std::map<std::string, std::string> fingerprint;
  /// Why `correct` is false, one line each.
  std::vector<std::string> errors;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Untraced runs set up this many times before the timed phase and as many
/// after it, and report the median setup_s: the host's speed drifts over
/// seconds, and one burst of set-ups sees only one moment of it.
constexpr int kSetupRuns = 5;

RunResult RunServeWarm(const Args& args);
RunResult RunBatchCold(const Args& args);
RunResult RunStreamChurn(const Args& args);

// ---------------------------------------------------------------------------
// Forwarding decorators for the two interfaces the engine accepts from
// outside. Each timed call adds to relaxed atomic totals, so they are safe
// under the engine's release threads and cost two clock reads per call.

struct LayerTotals {
  uint64_t count_calls = 0, count_ns = 0;  // PopulationCount + OverlapCount
  uint64_t into_calls = 0, into_ns = 0;    // PopulationInto
  uint64_t gather_calls = 0, gather_ns = 0;
  uint64_t detect_calls = 0, detect_ns = 0, detect_elems = 0;

  uint64_t probe_ns() const { return count_ns + into_ns + gather_ns; }
  LayerTotals operator-(const LayerTotals& base) const;
  LayerTotals& operator+=(const LayerTotals& more);
};

class LayerCounters {
 public:
  LayerTotals Read() const;

  std::atomic<uint64_t> count_calls{0}, count_ns{0};
  std::atomic<uint64_t> into_calls{0}, into_ns{0};
  std::atomic<uint64_t> gather_calls{0}, gather_ns{0};
  std::atomic<uint64_t> detect_calls{0}, detect_ns{0}, detect_elems{0};
};

class CountingDetector final : public pcor::OutlierDetector {
 public:
  CountingDetector(std::unique_ptr<pcor::OutlierDetector> inner,
                   LayerCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  using pcor::OutlierDetector::Detect;
  std::string name() const override { return inner_->name(); }
  void Detect(std::span<const double> values,
              std::vector<size_t>* flagged) const override;
  bool IsOutlier(std::span<const double> values,
                 size_t target) const override;
  size_t min_population() const override { return inner_->min_population(); }

 private:
  std::unique_ptr<pcor::OutlierDetector> inner_;
  LayerCounters* counters_;
};

class CountingProbe final : public pcor::PopulationProbe {
 public:
  CountingProbe(std::shared_ptr<const pcor::PopulationProbe> inner,
                LayerCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  const pcor::Dataset& dataset() const override { return inner_->dataset(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  pcor::IndexStorage storage() const override { return inner_->storage(); }
  pcor::PopulationIndexStats MemoryStats() const override {
    return inner_->MemoryStats();
  }
  void PopulationInto(const pcor::ContextVec& c, pcor::BitVector* population,
                      pcor::BitVector* attr_union) const override;
  size_t PopulationCount(const pcor::ContextVec& c) const override;
  size_t OverlapCount(const pcor::ContextVec& c1,
                      const pcor::ContextVec& c2) const override;
  const pcor::BitVector& ValueBitmap(size_t attr,
                                     size_t value) const override {
    return inner_->ValueBitmap(attr, value);
  }
  uint32_t RowCode(uint32_t row, size_t attr) const override {
    return inner_->RowCode(row, attr);
  }
  double RowMetric(uint32_t row) const override {
    return inner_->RowMetric(row);
  }
  void GatherMetrics(const pcor::BitVector& population,
                     std::vector<uint32_t>* row_ids,
                     std::vector<double>* metric) const override;
  pcor::ThreadPool* probe_pool() const override {
    return inner_->probe_pool();
  }

 private:
  std::shared_ptr<const pcor::PopulationProbe> inner_;
  LayerCounters* counters_;
};

// ---------------------------------------------------------------------------
// Open-loop replay of a trace against a PcorServer, recording per-request
// timings the server does not report itself.

struct ReplaySpec {
  pcor::PcorServer* server = nullptr;
  /// Streaming workloads: the stream behind `server`, pinned by the
  /// correctness check and by `on_sealed`.
  pcor::StreamingPcorEngine* stream = nullptr;
  std::vector<pcor::TraceEvent> events;
  std::vector<uint32_t> pool;
  /// Per-tenant release options override; tenants absent here use the
  /// server's defaults.
  std::map<std::string, PcorOptions> tenant_options;
  /// Append events take rows [append_begin, ...) of this dataset in order.
  const pcor::Dataset* append_rows = nullptr;
  size_t append_begin = 0;
  /// Real clock for timed runs, auto-advancing virtual clock for the
  /// as-fast-as-possible reference runs.
  pcor::Clock* clock = nullptr;
  /// Called on the driver thread after each seal with the new epoch.
  std::function<void(uint64_t)> on_sealed;
};

struct ReleaseRecord {
  size_t tenant = 0;
  int64_t scheduled_us = 0;
  int64_t submitted_us = 0;  // SubmitAsync returned
  int64_t done_us = 0;
  int64_t admit_ns = 0;      // SubmitAsync call time
  bool admitted = false;
  bool exception = false;
  /// Set by the collector: the released context fails f_M on the epoch
  /// the release ran against.
  bool invalid_context = false;
  BatchEntry entry;

  bool ok() const { return admitted && !exception && entry.status.ok(); }
};

struct ReplayOutcome {
  std::vector<std::string> tenants;  // first-appearance order
  std::vector<ReleaseRecord> releases;  // trace order
  std::vector<int64_t> lag_us;          // fired - scheduled, every event
  std::vector<int64_t> seal_latency_us; // scheduled -> SealEpoch returns
  std::vector<int64_t> seal_call_ns;
  std::vector<int64_t> append_call_ns;  // one per SubmitAppend
  size_t append_errors = 0;
  size_t seal_errors = 0;
  uint64_t digest = 0;
  double wall_s = 0.0;
  /// Per-tenant expected ledger: the admitted epsilons summed in admission
  /// order, exactly as the accountant adds them.
  std::vector<double> expected_spend;

  size_t ok() const;
  size_t failed() const;  // error status, exception or refused admission
};

/// Stamps, from a pre_batch_hook, when each release left the queue. The
/// request's pinned Rng seed identifies its slot: the k-th release of a
/// tenant gets PcorServer::RequestSeed(server seed, tenant, k).
struct HookLog {
  explicit HookLog(size_t releases) : dequeued_us(releases) {
    for (auto& t : dequeued_us) t.store(-1, std::memory_order_relaxed);
  }
  std::map<uint64_t, size_t> slot_of_seed;
  std::vector<std::atomic<int64_t>> dequeued_us;
  pcor::Clock* clock = nullptr;
  // Written only by the server's dispatcher thread; read after Shutdown.
  size_t batches = 0;
  size_t batched_requests = 0;

  void OnBatch(std::span<const pcor::BatchRequest> batch);
};

/// Installs a HookLog for the releases of the time-sorted `trace` as
/// `options->pre_batch_hook`, stamping with `clock`.
std::unique_ptr<HookLog> InstallHook(
    const std::vector<pcor::TraceEvent>& trace, pcor::Clock* clock,
    pcor::ServeOptions* options);

ReplayOutcome Replay(const ReplaySpec& spec);

/// Checks every ledger against the replay's expected spend and the digest
/// against `reference_digest`. Released contexts must pass f_M: through
/// `verifier` when given (classic engines), else by the collector's flag.
void CheckServed(const ReplayOutcome& outcome, const pcor::PcorServer& server,
                 uint64_t reference_digest,
                 const pcor::OutlierVerifier* verifier, RunResult* result);

// ---------------------------------------------------------------------------
// Single-thread stage re-execution of sampled releases (mirrors
// PcorEngine::Release call for call, with the request's own seed).

struct ReplayItem {
  uint32_t v_row = 0;
  uint64_t seed = 0;
  PcorOptions options;
  pcor::ContextVec expected;
};

struct StageTotals {
  size_t releases = 0;
  size_t mismatches = 0;
  double wall_ns = 0, start_ns = 0, walk_ns = 0, walk_inner_ns = 0;
  double score_ns = 0, mechanism_ns = 0;
  LayerTotals layer;  // decorator deltas over the whole re-execution
};

/// Re-executes `items` in order and adds their stage times to `*totals`.
void ReplayStages(const pcor::OutlierVerifier& verifier,
                  std::span<const ReplayItem> items,
                  const LayerCounters& counters, StageTotals* totals);

/// Fills the stage.*, trace.unattributed_share, trace.replay_mismatches
/// and the two layer shares. Every share has one base: the re-executed
/// releases' wall time, which, unlike PcorRelease::seconds, includes
/// Release()'s first FindStartingContext.
void FillStageMetrics(const StageTotals& stages, Layers* layers);

/// Fills the per-release counts and per-call times of detector.* and
/// probe.* from decorator deltas over `releases` releases.
void FillLayerMetrics(const LayerTotals& delta, size_t releases,
                      Layers* layers);

/// Scheduled-fire-time -> completion latency of a replay, robust to a
/// passing stall of the host: the p50 and p99 of each window of
/// kLatencyWindow consecutive releases (trace order; the last window takes
/// the remainder, so every p99 has at least ten samples beyond it), then
/// the median across windows.
constexpr size_t kLatencyWindow = 1000;
struct Latency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
Latency ScheduledLatency(const ReplayOutcome& outcome);

/// Fills the memo.* metrics from verifier counters taken around a timed
/// phase of `releases` OK releases.
void FillMemoMetrics(const pcor::VerifierStats& before,
                     const pcor::VerifierStats& after, size_t releases,
                     Layers* layers);

/// Fills the serve.*, driver.* and engine.* metrics of a served replay.
void FillServeMetrics(const ReplayOutcome& outcome, const HookLog* hooks,
                      Layers* layers);

// ---------------------------------------------------------------------------
// The classic (load-once) substrate of serve-warm and batch-cold.

struct ClassicSubstrate {
  pcor::Dataset dataset;
  std::vector<uint32_t> planted;
  std::unique_ptr<pcor::OutlierDetector> detector;
  std::unique_ptr<pcor::PcorEngine> engine;
  std::vector<uint32_t> pool;
  double index_build_s = 0.0;
};

/// Reduced salary data (11,000 rows), LOF, the engine and the pool of
/// verified planted outliers. With `counters`, the engine runs over the
/// counting decorators through the probe-backed constructor; without, it
/// is built exactly as a user builds it.
std::unique_ptr<ClassicSubstrate> BuildClassic(uint64_t seed,
                                               LayerCounters* counters);

// ---------------------------------------------------------------------------
// Helpers.

double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double NowSeconds();
double PeakRssMb();
uint64_t Fold(uint64_t h, uint64_t v);
/// The reduced salary workload's verified planted outliers under `verifier`.
std::vector<uint32_t> SelectPool(const pcor::OutlierVerifier& verifier,
                                 const std::vector<uint32_t>& planted,
                                 uint64_t seed);
/// The release options every workload starts from: BFS, n=20, eps=0.2.
PcorOptions BaseReleaseOptions();
size_t HostThreads();
void AddHostFingerprint(RunResult* result);

}  // namespace perfbench
