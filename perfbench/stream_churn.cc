// stream-churn: an open-loop trace against a streaming PcorServer. Setup
// seals a base prefix of the salary rows that holds the query pool; the
// timed trace appends the remaining rows in dataset order, in bursts, and
// seals periodically behind the seal barrier while two tenants release at
// a fixed rate. Every seal retires memo warmth, so releases re-warm per
// epoch over the segmented probe: the probe, segment, seal and epoch-memo
// path is what this workload measures.

#include <algorithm>

#include "perfbench/perfbench.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/exp/workloads.h"

namespace perfbench {

namespace {

constexpr const char* kTenants[] = {"north", "south"};
constexpr size_t kSeals = 100;  // >= 100 seal samples per run
constexpr size_t kBurstsPerSeal = 4;
// A set-up here takes about 50 ms, so kSetupRuns of them span too little
// of the host's drift; 25 take about 1.3 s.
constexpr int kStreamSetupRuns = 25;
// Traced runs keep every kPinStride-th sealed epoch pinned for the stage
// re-execution of the releases that ran on it.
constexpr size_t kPinStride = 10;

struct StreamData {
  pcor::Dataset dataset;
  size_t base_rows = 0;
  std::vector<uint32_t> pool;
};

// The query pool: planted outliers inside the base prefix that verify
// under zscore on the base prefix and on the whole data set.
StreamData BuildData(uint64_t seed) {
  StreamData d;
  auto workload = pcor::MakeReducedSalaryWorkload(1.0);
  auto zscore = pcor::MakeDetector("zscore");
  PCOR_CHECK(workload.ok() && zscore.ok()) << "salary workload / zscore";
  d.dataset = std::move(workload.value().data.dataset);
  d.base_rows = d.dataset.num_rows() / 2;
  std::vector<uint32_t> base_ids(d.base_rows), candidates;
  for (size_t i = 0; i < d.base_rows; ++i) base_ids[i] = i;
  for (uint32_t row : workload.value().data.planted_outlier_rows) {
    if (row < d.base_rows) candidates.push_back(row);
  }
  auto base = d.dataset.SelectRows(base_ids);
  PCOR_CHECK(base.ok()) << "base prefix";
  pcor::PcorEngine base_engine(base.value(), *zscore.value());
  pcor::PcorEngine full_engine(d.dataset, *zscore.value());
  d.pool = SelectPool(full_engine.verifier(),
                      SelectPool(base_engine.verifier(), candidates, seed),
                      seed);
  PCOR_CHECK(!d.pool.empty()) << "no planted outlier verifies under zscore";
  return d;
}

struct Stream {
  std::unique_ptr<pcor::OutlierDetector> detector;
  std::unique_ptr<pcor::StreamingPcorEngine> engine;
  double base_seal_s = 0.0;
};

Stream OpenStream(const StreamData& d, LayerCounters* counters) {
  Stream s;
  auto zscore = pcor::MakeDetector("zscore");
  PCOR_CHECK(zscore.ok()) << "zscore";
  s.detector = std::move(zscore).value();
  if (counters != nullptr) {
    s.detector =
        std::make_unique<CountingDetector>(std::move(s.detector), counters);
  }
  s.engine = std::make_unique<pcor::StreamingPcorEngine>(d.dataset.schema(),
                                                         *s.detector);
  std::vector<pcor::Row> rows;
  rows.reserve(d.base_rows);
  for (size_t i = 0; i < d.base_rows; ++i) {
    rows.push_back(d.dataset.GetRow(i));
  }
  s.engine->AppendRows(rows).CheckOK();
  const double start = NowSeconds();
  s.engine->SealEpoch();
  s.base_seal_s = NowSeconds() - start;
  return s;
}

// Releases at a fixed rate alternating between the tenants, the remaining
// rows appended in kBurstsPerSeal bursts per seal interval, and kSeals
// seals, each late in its interval.
std::vector<pcor::TraceEvent> MakeTrace(const StreamData& d,
                                        const Args& args) {
  std::vector<pcor::TraceEvent> events;
  pcor::Rng rng(args.seed);
  const double duration_us = args.seconds * 1e6;
  const double gap_us = 1e6 / args.stream_rate;
  for (double t = rng.NextDouble() * gap_us; t < duration_us; t += gap_us) {
    pcor::TraceEvent e;
    e.at_us = static_cast<int64_t>(t);
    e.tenant = kTenants[events.size() % 2];
    e.rows = rng.NextBounded(d.pool.size());
    events.push_back(std::move(e));
  }
  const size_t remaining = d.dataset.num_rows() - d.base_rows;
  const size_t bursts = kSeals * kBurstsPerSeal;
  const double interval_us = duration_us / kSeals;
  for (size_t b = 0; b < bursts; ++b) {
    pcor::TraceEvent e;
    e.at_us = static_cast<int64_t>(
        interval_us * (b / kBurstsPerSeal) +
        interval_us * 0.8 * (b % kBurstsPerSeal) / kBurstsPerSeal);
    e.tenant = "writer";
    e.kind = pcor::TraceEventKind::kAppend;
    e.rows = remaining / bursts + (b < remaining % bursts ? 1 : 0);
    events.push_back(std::move(e));
    if (b % kBurstsPerSeal == kBurstsPerSeal - 1) {
      pcor::TraceEvent seal;
      seal.at_us = static_cast<int64_t>(interval_us * (b / kBurstsPerSeal) +
                                        interval_us * 0.9);
      seal.tenant = "writer";
      seal.kind = pcor::TraceEventKind::kSeal;
      events.push_back(std::move(seal));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const pcor::TraceEvent& a, const pcor::TraceEvent& b) {
                     return a.at_us < b.at_us;
                   });
  return events;
}

struct StreamPhase {
  ReplayOutcome outcome;
  pcor::StreamingStats before, after;
  pcor::ServerStats stats;
  pcor::VerifierStats memo_before, memo_after;
  LayerTotals layer;
  std::unique_ptr<HookLog> hooks;
  std::map<uint64_t, std::shared_ptr<const pcor::EpochSnapshot>> pinned;
  double base_seal_s = 0.0;
  double index_mb = 0.0;
};

// A same-seed reference replay as fast as the server goes on its own
// stream, then the timed open-loop replay on a fresh stream.
StreamPhase RunPhase(const StreamData& d,
                     const std::vector<pcor::TraceEvent>& trace,
                     const Args& args, LayerCounters* counters,
                     Stream* stream, RunResult* result) {
  StreamPhase phase;
  pcor::ServeOptions options;
  options.release = BaseReleaseOptions();
  options.release_threads = HostThreads();
  options.seed = args.seed;
  auto make_spec = [&](pcor::PcorServer* server,
                       pcor::StreamingPcorEngine* engine,
                       pcor::Clock* clock) {
    ReplaySpec spec;
    spec.server = server;
    spec.stream = engine;
    spec.events = trace;
    spec.pool = d.pool;
    spec.append_rows = &d.dataset;
    spec.append_begin = d.base_rows;
    spec.clock = clock;
    return spec;
  };

  uint64_t reference_digest = 0;
  {
    Stream reference = OpenStream(d, nullptr);
    pcor::VirtualClock instant;
    pcor::PcorServer server(*reference.engine, options);
    reference_digest =
        Replay(make_spec(&server, reference.engine.get(), &instant)).digest;
    server.Shutdown();
  }

  *stream = OpenStream(d, counters);
  phase.base_seal_s = stream->base_seal_s;
  pcor::StreamingPcorEngine& engine = *stream->engine;
  pcor::RealClock clock;
  if (counters != nullptr) {
    phase.hooks = InstallHook(trace, &clock, &options);
    auto base = engine.Pin();
    phase.pinned[base->epoch] = base;
  }
  pcor::PcorServer server(engine, options);
  ReplaySpec spec = make_spec(&server, &engine, &clock);
  size_t seals = 0;
  if (counters != nullptr) {
    spec.on_sealed = [&](uint64_t epoch) {
      if (++seals % kPinStride == 0) phase.pinned[epoch] = engine.Pin();
    };
  }
  phase.before = engine.stats();
  // Any epoch's verifier reports the counters of the shared memo.
  phase.memo_before = engine.Pin()->engine->verifier().Stats();
  const LayerTotals layer_before =
      counters != nullptr ? counters->Read() : LayerTotals{};
  phase.outcome = Replay(spec);
  server.Shutdown();
  phase.stats = server.stats();
  phase.after = engine.stats();
  phase.memo_after = engine.Pin()->engine->verifier().Stats();
  if (counters != nullptr) phase.layer = counters->Read() - layer_before;
  phase.index_mb =
      engine.Pin()->probe->MemoryStats().bitmap_bytes / 1048576.0;

  CheckServed(phase.outcome, server, reference_digest, nullptr, result);
  const ReplayOutcome& o = phase.outcome;
  if (o.append_errors + o.seal_errors > 0 ||
      phase.after.epoch != d.dataset.num_rows()) {
    result->Fail(pcor::strings::Format(
        "stream ended at epoch %llu with %zu append and %zu seal errors",
        static_cast<unsigned long long>(phase.after.epoch), o.append_errors,
        o.seal_errors));
  }
  return phase;
}

}  // namespace

RunResult RunStreamChurn(const Args& args) {
  RunResult result;
  std::vector<double> setup_s;
  StreamData data;
  Stream stream;
  auto set_up = [&](StreamData* d, Stream* s) {
    *s = Stream{};
    const double start = NowSeconds();
    *d = BuildData(args.seed);
    *s = OpenStream(*d, nullptr);
    return NowSeconds() - start;
  };
  for (int i = 0; i < (args.trace ? 1 : kStreamSetupRuns); ++i) {
    setup_s.push_back(set_up(&data, &stream));
  }
  stream = Stream{};
  const std::vector<pcor::TraceEvent> trace = MakeTrace(data, args);
  result.fingerprint["dataset_rows"] =
      std::to_string(data.dataset.num_rows());
  result.fingerprint["base_rows"] = std::to_string(data.base_rows);
  result.fingerprint["pool_size"] = std::to_string(data.pool.size());
  result.fingerprint["offered_releases_per_s"] =
      pcor::strings::Format("%g", args.stream_rate);
  result.fingerprint["seals"] = std::to_string(kSeals);

  StreamPhase plain = RunPhase(data, trace, args, nullptr, &stream, &result);
  const double plain_p50 = ScheduledLatency(plain.outcome).p50_ms;
  if (!args.trace) {
    const ReplayOutcome& o = plain.outcome;
    result.attempted = o.releases.size();
    result.failed = o.failed();
    result.e2e.releases_per_s = o.ok() / o.wall_s;
    const Latency latency = ScheduledLatency(o);
    result.e2e.release_p50_ms = latency.p50_ms;
    result.e2e.release_p99_ms = latency.p99_ms;
    result.e2e.peak_rss_mb = PeakRssMb();
    for (int i = 0; i < kStreamSetupRuns; ++i) {
      StreamData d;
      Stream s;
      setup_s.push_back(set_up(&d, &s));
    }
    result.e2e.setup_s = Median(setup_s);
    return result;
  }

  stream = Stream{};
  LayerCounters counters;
  StreamPhase traced =
      RunPhase(data, trace, args, &counters, &stream, &result);
  const ReplayOutcome& o = traced.outcome;
  result.attempted = o.releases.size();
  result.failed = o.failed();
  Layers& layers = result.layers;
  FillServeMetrics(o, traced.hooks.get(), &layers);
  layers.release_p99_ms = ScheduledLatency(plain.outcome).p99_ms;
  layers.queue_high_water =
      static_cast<double>(traced.stats.queue_high_water);

  std::vector<double> append_us, seal_us, seal_ms;
  for (int64_t ns : o.append_call_ns) append_us.push_back(ns / 1e3);
  for (int64_t ns : o.seal_call_ns) seal_us.push_back(ns / 1e3);
  for (int64_t us : o.seal_latency_us) seal_ms.push_back(us / 1e3);
  layers.stream_append_us_p99 = Percentile(append_us, 0.99);
  layers.stream_seal_us_p50 = Percentile(seal_us, 0.5);
  layers.stream_seal_us_p90 = Percentile(seal_us, 0.9);
  layers.seal_p50_ms = Percentile(seal_ms, 0.5);
  layers.seal_p90_ms = Percentile(seal_ms, 0.9);
  layers.stream_segments = static_cast<double>(traced.after.segments);
  layers.stream_compactions =
      static_cast<double>(traced.after.compactions - traced.before.compactions);
  layers.stream_memo_invalidations = static_cast<double>(
      traced.after.cache_invalidations - traced.before.cache_invalidations);

  FillMemoMetrics(traced.memo_before, traced.memo_after, o.ok(), &layers);
  layers.index_resident_mb = traced.index_mb;
  layers.index_build_s = traced.base_seal_s;

  std::map<uint64_t, std::vector<ReplayItem>> items_by_epoch;
  for (const ReleaseRecord& rec : o.releases) {
    if (!rec.ok()) continue;
    const uint64_t epoch = rec.entry.release.epoch;
    if (traced.pinned.count(epoch) == 0) continue;
    ReplayItem item;
    item.v_row = rec.entry.v_row;
    item.seed = rec.entry.rng_seed;
    item.options = BaseReleaseOptions();
    item.expected = rec.entry.release.context;
    items_by_epoch[epoch].push_back(std::move(item));
  }
  // The streaming engine builds its probes itself, so the detector is
  // counted on the served releases and the probe only on re-execution.
  FillLayerMetrics(traced.layer, o.ok(), &layers);
  StageTotals stages;
  for (const auto& [epoch, items] : items_by_epoch) {
    const auto& snapshot = traced.pinned.at(epoch);
    pcor::PcorEngine replay_engine(
        std::make_shared<const CountingProbe>(snapshot->probe, &counters),
        *stream.detector, stream.engine->memo(), epoch);
    ReplayStages(replay_engine.verifier(), items, counters, &stages);
  }
  FillStageMetrics(stages, &layers);
  Layers from_replay;
  FillLayerMetrics(stages.layer, stages.releases, &from_replay);
  layers.probe_count_calls_per_release =
      from_replay.probe_count_calls_per_release;
  layers.probe_count_us_per_call = from_replay.probe_count_us_per_call;
  layers.probe_into_us_per_call = from_replay.probe_into_us_per_call;
  layers.probe_gather_us_per_call = from_replay.probe_gather_us_per_call;
  layers.trace_overhead_share =
      ScheduledLatency(o).p50_ms / plain_p50 - 1.0;
  return result;
}

}  // namespace perfbench
