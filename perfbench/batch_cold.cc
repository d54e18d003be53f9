// batch-cold: one heterogeneous ReleaseBatch on an engine whose verifier
// memo is empty — the paper harness's path on a first run after start-up.
// f_M misses dominate and there is no serve layer, so detector kernels,
// index storage and the memo show here; serve changes must not. The batch
// is repeated, memo cleared before each, until the run time is spent.

#include "perfbench/perfbench.h"
#include "src/exp/trace_driver.h"

namespace perfbench {

namespace {

// Direct and uniform sampling are left out: their cost is the Table-2
// baseline and would swamp the run.
constexpr pcor::SamplerKind kSamplers[] = {pcor::SamplerKind::kBfs,
                                           pcor::SamplerKind::kDfs,
                                           pcor::SamplerKind::kRandomWalk};
constexpr size_t kReps = 2;
// Stage re-execution replays this prefix of one batch on a cleared memo;
// the batch is ordered outlier-major, so the prefix covers every sampler.
constexpr size_t kReplayPrefix = 240;

struct BatchPhase {
  double releases_per_s = 0.0;
  std::vector<double> release_ms;
  size_t attempted = 0;
  size_t failed = 0;
  pcor::VerifierStats memo_before, memo_after;
  LayerTotals layer;
  pcor::BatchReleaseReport last;
};

BatchPhase RunPhase(const ClassicSubstrate& s,
                    const std::vector<pcor::BatchRequest>& requests,
                    const Args& args, LayerCounters* counters,
                    RunResult* result) {
  BatchPhase phase;
  const pcor::OutlierVerifier& verifier = s.engine->verifier();
  phase.memo_before = verifier.Stats();
  const LayerTotals layer_before =
      counters != nullptr ? counters->Read() : LayerTotals{};
  uint64_t first_digest = 0;
  double released = 0.0, wall = 0.0;
  std::vector<std::pair<pcor::ContextVec, uint32_t>> released_contexts;
  const double start = NowSeconds();
  for (size_t batch = 0;
       batch < 2 || NowSeconds() - start < args.seconds; ++batch) {
    // The first two batches share the run's seed, so their digests must
    // match; later batches draw fresh trajectories, so one run averages
    // over more of the cold-cost distribution than a single seed gives.
    const uint64_t batch_seed = batch < 2 ? args.seed : Fold(args.seed, batch);
    verifier.ClearCache();
    const double t0 = NowSeconds();
    pcor::BatchReleaseReport report = s.engine->ReleaseBatch(
        std::span<const pcor::BatchRequest>(requests), BaseReleaseOptions(),
        batch_seed, HostThreads());
    wall += NowSeconds() - t0;
    uint64_t digest = 0x9e3779b97f4a7c15ULL;
    for (const BatchEntry& entry : report.entries) {
      digest = Fold(digest, pcor::DigestBatchEntry(entry));
      if (!entry.status.ok()) continue;
      phase.release_ms.push_back(entry.release.seconds * 1e3);
      released_contexts.emplace_back(entry.release.context, entry.v_row);
    }
    if (batch == 0) first_digest = digest;
    if (batch == 1 && digest != first_digest) {
      result->Fail("batch digest differs between same-seed batches");
    }
    phase.attempted += report.entries.size();
    phase.failed += report.failures;
    released += report.num_released();
    phase.last = std::move(report);
  }
  phase.releases_per_s = released / wall;
  phase.memo_after = verifier.Stats();
  if (counters != nullptr) phase.layer = counters->Read() - layer_before;

  // Checked after the counters are read: contexts of earlier batches were
  // cleared from the memo and cost detector runs again.
  size_t invalid = 0;
  for (const auto& [context, v_row] : released_contexts) {
    if (!verifier.IsOutlierInContext(context, v_row)) ++invalid;
  }
  if (invalid > 0) {
    result->Fail(std::to_string(invalid) +
                 " released contexts fail f_M on the engine");
  }
  return phase;
}

}  // namespace

RunResult RunBatchCold(const Args& args) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<ClassicSubstrate> substrate;
  auto set_up = [&](std::unique_ptr<ClassicSubstrate>* s) {
    s->reset();
    const double start = NowSeconds();
    *s = BuildClassic(args.seed, nullptr);
    return NowSeconds() - start;
  };
  for (int i = 0; i < (args.trace ? 1 : kSetupRuns); ++i) {
    setup_s.push_back(set_up(&substrate));
  }

  std::vector<pcor::BatchRequest> requests;
  for (uint32_t row : substrate->pool) {
    for (pcor::SamplerKind sampler : kSamplers) {
      for (size_t rep = 0; rep < kReps; ++rep) {
        pcor::BatchRequest request;
        request.v_row = row;
        PcorOptions options = BaseReleaseOptions();
        options.sampler = sampler;
        request.options = options;
        requests.push_back(std::move(request));
      }
    }
  }
  result.fingerprint["dataset_rows"] =
      std::to_string(substrate->dataset.num_rows());
  result.fingerprint["pool_size"] = std::to_string(substrate->pool.size());
  result.fingerprint["batch_entries"] = std::to_string(requests.size());

  BatchPhase plain = RunPhase(*substrate, requests, args, nullptr, &result);
  if (!args.trace) {
    result.attempted = plain.attempted;
    result.failed = plain.failed;
    result.e2e.releases_per_s = plain.releases_per_s;
    result.e2e.release_p50_ms = Percentile(plain.release_ms, 0.5);
    result.e2e.release_p99_ms = Percentile(plain.release_ms, 0.99);
    result.e2e.peak_rss_mb = PeakRssMb();
    for (int i = 0; i < kSetupRuns; ++i) {
      std::unique_ptr<ClassicSubstrate> s;
      setup_s.push_back(set_up(&s));
    }
    result.e2e.setup_s = Median(setup_s);
    return result;
  }

  substrate.reset();
  LayerCounters counters;
  substrate = BuildClassic(args.seed, &counters);
  BatchPhase traced =
      RunPhase(*substrate, requests, args, &counters, &result);
  result.attempted = traced.attempted;
  result.failed = traced.failed;
  Layers& layers = result.layers;
  const size_t released = traced.attempted - traced.failed;
  layers.release_p99_ms = Percentile(plain.release_ms, 0.99);
  layers.engine_release_ms_p50 = Percentile(traced.release_ms, 0.5);
  layers.engine_release_ms_p99 = Percentile(traced.release_ms, 0.99);
  double probes = 0, candidates = 0;
  for (const BatchEntry& entry : traced.last.entries) {
    probes += entry.release.probes;
    candidates += entry.release.num_candidates;
  }
  layers.probes_per_release = probes / traced.last.entries.size();
  layers.candidates_per_release = candidates / traced.last.entries.size();
  FillLayerMetrics(traced.layer, released, &layers);

  FillMemoMetrics(traced.memo_before, traced.memo_after, released, &layers);
  layers.index_resident_mb =
      substrate->engine->probe().MemoryStats().bitmap_bytes / 1048576.0;
  layers.index_build_s = substrate->index_build_s;

  std::vector<ReplayItem> items;
  for (size_t i = 0;
       i < std::min(kReplayPrefix, traced.last.entries.size()); ++i) {
    const BatchEntry& entry = traced.last.entries[i];
    if (!entry.status.ok()) continue;
    ReplayItem item;
    item.v_row = entry.v_row;
    item.seed = entry.rng_seed;
    item.options = *requests[i].options;
    item.expected = entry.release.context;
    items.push_back(std::move(item));
  }
  substrate->engine->verifier().ClearCache();
  StageTotals stages;
  ReplayStages(substrate->engine->verifier(), items, counters, &stages);
  FillStageMetrics(stages, &layers);
  layers.trace_overhead_share =
      plain.releases_per_s / traced.releases_per_s - 1.0;
  return result;
}

}  // namespace perfbench
