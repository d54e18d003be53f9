// serve-warm: an open-loop constant-rate Poisson trace against a classic
// PcorServer whose verifier memo already holds every context the trace
// will visit. f_M is all memo hits, so time goes to the sampler walk, the
// utility's PopulationCount probes and the serve path; detector and
// memo-miss changes must show nothing here.

#include "perfbench/perfbench.h"
#include "src/common/string_util.h"

namespace perfbench {

namespace {

struct TenantSpec {
  const char* id;
  double weight;
};
// Unequal DRR weights; the last tenant sends per-request option overrides,
// so micro-batches are heterogeneous.
constexpr TenantSpec kTenants[] = {{"gold", 4.0}, {"silver", 2.0},
                                   {"bronze", 1.0}};

PcorOptions BronzeOptions() {
  PcorOptions options = BaseReleaseOptions();
  options.sampler = pcor::SamplerKind::kDfs;
  options.total_epsilon = 0.1;
  return options;
}

pcor::ServeOptions MakeServeOptions(const Args& args) {
  pcor::ServeOptions options;
  options.release = BaseReleaseOptions();
  options.release_threads = HostThreads();
  options.seed = args.seed;
  return options;
}

void RegisterTenants(pcor::PcorServer* server) {
  for (const TenantSpec& t : kTenants) {
    pcor::TenantConfig config;
    config.weight = t.weight;
    server->RegisterTenant(t.id, config).CheckOK();
  }
}

struct ServePhase {
  ReplayOutcome outcome;
  double warmup_s = 0.0;
  pcor::ServerStats stats;
  pcor::VerifierStats memo_before, memo_after;
  LayerTotals layer;
  std::unique_ptr<HookLog> hooks;
};

// Warm-up replay of the identical trace as fast as the server goes, then
// the timed open-loop replay on a fresh server over the same engine. The
// warm-up is the same-seed reference run the timed digest must match.
ServePhase RunPhase(const ClassicSubstrate& s,
                    const std::vector<pcor::TraceEvent>& trace,
                    const Args& args, LayerCounters* counters,
                    RunResult* result) {
  ServePhase phase;
  pcor::ServeOptions options = MakeServeOptions(args);
  auto make_spec = [&](pcor::PcorServer* server, pcor::Clock* clock) {
    ReplaySpec spec;
    spec.server = server;
    spec.events = trace;
    spec.pool = s.pool;
    spec.tenant_options["bronze"] = BronzeOptions();
    spec.clock = clock;
    return spec;
  };

  uint64_t reference_digest = 0;
  {
    const double start = NowSeconds();
    pcor::VirtualClock instant;
    pcor::PcorServer warm(*s.engine, options);
    RegisterTenants(&warm);
    reference_digest = Replay(make_spec(&warm, &instant)).digest;
    warm.Shutdown();
    phase.warmup_s = NowSeconds() - start;
  }

  pcor::RealClock clock;
  if (counters != nullptr) {
    phase.hooks = InstallHook(trace, &clock, &options);
  }
  pcor::PcorServer server(*s.engine, options);
  RegisterTenants(&server);
  const pcor::OutlierVerifier& verifier = s.engine->verifier();
  phase.memo_before = verifier.Stats();
  const LayerTotals layer_before =
      counters != nullptr ? counters->Read() : LayerTotals{};
  phase.outcome = Replay(make_spec(&server, &clock));
  server.Shutdown();
  phase.memo_after = verifier.Stats();
  if (counters != nullptr) phase.layer = counters->Read() - layer_before;
  phase.stats = server.stats();
  CheckServed(phase.outcome, server, reference_digest, &verifier, result);
  return phase;
}

}  // namespace

RunResult RunServeWarm(const Args& args) {
  RunResult result;
  pcor::DiurnalTraceOptions trace_options;
  trace_options.tenants.clear();
  for (const TenantSpec& t : kTenants) {
    trace_options.tenants.push_back(t.id);
  }
  trace_options.duration_us = static_cast<int64_t>(args.seconds * 1e6);
  trace_options.period_us = trace_options.duration_us;
  trace_options.trough_releases_per_sec = args.serve_rate;
  trace_options.peak_releases_per_sec = args.serve_rate;
  trace_options.seed = args.seed;
  const std::vector<pcor::TraceEvent> trace =
      pcor::MakeDiurnalTrace(trace_options);

  std::vector<double> setup_s;
  std::unique_ptr<ClassicSubstrate> substrate;
  // setup_s: the median of the builds plus the one warm-up replay.
  auto set_up = [&](std::unique_ptr<ClassicSubstrate>* s) {
    s->reset();
    const double start = NowSeconds();
    *s = BuildClassic(args.seed, nullptr);
    return NowSeconds() - start;
  };
  for (int i = 0; i < (args.trace ? 1 : kSetupRuns); ++i) {
    setup_s.push_back(set_up(&substrate));
  }
  ServePhase plain = RunPhase(*substrate, trace, args, nullptr, &result);
  const double plain_p50 = ScheduledLatency(plain.outcome).p50_ms;

  result.fingerprint["dataset_rows"] =
      std::to_string(substrate->dataset.num_rows());
  result.fingerprint["pool_size"] = std::to_string(substrate->pool.size());
  result.fingerprint["offered_releases_per_s"] =
      pcor::strings::Format("%g", args.serve_rate);
  result.fingerprint["trace_releases"] = std::to_string(trace.size());

  if (!args.trace) {
    const ReplayOutcome& o = plain.outcome;
    result.attempted = o.releases.size();
    result.failed = o.failed();
    result.e2e.releases_per_s = o.ok() / o.wall_s;
    const Latency latency = ScheduledLatency(o);
    result.e2e.release_p50_ms = latency.p50_ms;
    result.e2e.release_p99_ms = latency.p99_ms;
    result.e2e.peak_rss_mb = PeakRssMb();
    for (int i = 0; i < kSetupRuns; ++i) {
      std::unique_ptr<ClassicSubstrate> s;
      setup_s.push_back(set_up(&s));
    }
    result.e2e.setup_s = Median(setup_s) + plain.warmup_s;
    return result;
  }

  // Traced: the same phase again over the counting decorators.
  substrate.reset();
  LayerCounters counters;
  substrate = BuildClassic(args.seed, &counters);
  ServePhase traced = RunPhase(*substrate, trace, args, &counters, &result);
  const ReplayOutcome& o = traced.outcome;
  result.attempted = o.releases.size();
  result.failed = o.failed();
  Layers& layers = result.layers;
  FillServeMetrics(o, traced.hooks.get(), &layers);
  layers.release_p99_ms = ScheduledLatency(plain.outcome).p99_ms;
  layers.queue_high_water = static_cast<double>(traced.stats.queue_high_water);

  std::vector<ReplayItem> items;
  const size_t stride = std::max<size_t>(1, o.ok() / 200);
  size_t k = 0;
  for (const ReleaseRecord& rec : o.releases) {
    if (!rec.ok()) continue;
    if (k++ % stride != 0) continue;
    ReplayItem item;
    item.v_row = rec.entry.v_row;
    item.seed = rec.entry.rng_seed;
    item.options = o.tenants[rec.tenant] == "bronze" ? BronzeOptions()
                                                     : BaseReleaseOptions();
    item.expected = rec.entry.release.context;
    items.push_back(std::move(item));
  }
  FillLayerMetrics(traced.layer, o.ok(), &layers);

  FillMemoMetrics(traced.memo_before, traced.memo_after, o.ok(), &layers);
  layers.index_resident_mb =
      substrate->engine->probe().MemoryStats().bitmap_bytes / 1048576.0;
  layers.index_build_s = substrate->index_build_s;

  StageTotals stages;
  ReplayStages(substrate->engine->verifier(), items, counters, &stages);
  FillStageMetrics(stages, &layers);
  const double traced_p50 = ScheduledLatency(o).p50_ms;
  layers.trace_overhead_share = traced_p50 / plain_p50 - 1.0;
  return result;
}

}  // namespace perfbench
