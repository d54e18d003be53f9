// Open-loop trace replay bench: latency-honest load generation.
//
// bench_serve_throughput's client sweep is closed-loop — client threads
// block on their futures before submitting again, so the measured p99 only
// covers requests the server was ready for (coordinated omission). This bench
// replays recorded-style traces open-loop: a TraceDriver fires each event
// at its scheduled time no matter how far behind the server is, and the
// report puts SCHEDULED-to-completion percentiles (what a clocked client
// population actually experiences) next to submit-to-completion ones
// (what closed-loop benches report). The difference at p99 is the
// omission gap.
//
// Sections (each emits one `trace_replay` BENCH_JSON line; the flood
// section adds one `trace_replay_tenant` line per tenant):
//   * flood    — steady tenants plus a burst aggressor over a small
//                admission queue (submitters block while it is full),
//                the canonical omission demonstration;
//   * diurnal  — sinusoidal Poisson arrivals, the day/night curve;
//   * storm    — budget-exhaustion: admission order equals trace order,
//                so the typed kPrivacyBudgetExceeded rejection count is
//                exact arithmetic;
//   * streaming— mixed Append/Seal/Release interleave on a streaming
//                server, replayed with 1 and 16 collector threads.
//
// Enforced bars:
//   * never relaxed: scheduled p99 >= submit p99 on every section (the
//     scheduled latency dominates pointwise by construction — a violation
//     is a histogram/driver bug, not a slow host);
//   * never relaxed: storm rejection arithmetic is exact, and every
//     release event reaches exactly one terminal outcome;
//   * never relaxed: the streaming trace's release digest and epoch are
//     bit-identical at 1 and 16 collector threads;
//   * PCOR_RELAX_TRACE=1 relaxes to a note: the flood trace must show a
//     strictly positive omission gap (a fast-enough host could in
//     principle keep up; CI enforces it in the bench-json job only).
//
// Knobs: PCOR_TRACE_EVENTS scales the flood burst (default 192);
// PCOR_REPS/PCOR_SCALE/PCOR_SEED as the other benches.
#include <algorithm>
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/exp/trace.h"
#include "src/exp/trace_driver.h"
#include "src/outlier/zscore.h"
#include "src/search/streaming.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

double Ms(int64_t us) { return static_cast<double>(us) / 1e3; }

void EmitSection(BenchJsonEmitter& emitter, const char* section,
                 const TraceReplayResult& r, uint64_t queue_high_water) {
  const int64_t sched_p99 = r.scheduled.PercentileUs(0.99);
  const int64_t submit_p99 = r.submitted.PercentileUs(0.99);
  emitter.Emit(strings::Format(
      "{\"bench\":\"trace_replay\",\"section\":\"%s\",\"releases\":%zu,"
      "\"released\":%zu,\"failed\":%zu,\"rejected_budget\":%zu,"
      "\"rejected_other\":%zu,\"appends\":%zu,\"seals\":%zu,"
      "\"late\":%zu,\"max_lag_ms\":%.3f,\"queue_high_water\":%llu,"
      "\"sched_p50_ms\":%.3f,\"sched_p99_ms\":%.3f,\"sched_p999_ms\":%.3f,"
      "\"submit_p50_ms\":%.3f,\"submit_p99_ms\":%.3f,"
      "\"omission_gap_ms\":%.3f,\"wall_s\":%.6f,"
      "\"kernel_backend\":\"%s\"}",
      section, r.releases, r.released, r.failed, r.rejected_budget,
      r.rejected_other, r.appends, r.seals, r.driver.late,
      Ms(r.driver.max_lag_us),
      static_cast<unsigned long long>(queue_high_water),
      Ms(r.scheduled.PercentileUs(0.50)), Ms(sched_p99),
      Ms(r.scheduled.PercentileUs(0.999)),
      Ms(r.submitted.PercentileUs(0.50)), Ms(submit_p99),
      Ms(sched_p99 - submit_p99), r.wall_seconds,
      simd::ActiveBackendName()));
}

void PrintSection(const char* section, const TraceReplayResult& r) {
  std::printf(
      "%-9s events=%zu released=%zu failed=%zu rej_budget=%zu rej_other=%zu "
      "late=%zu\n          sched p50/p99/p999 = %.2f/%.2f/%.2f ms   "
      "submit p50/p99 = %.2f/%.2f ms   gap(p99) = %.2f ms\n",
      section, r.releases, r.released, r.failed, r.rejected_budget,
      r.rejected_other, r.driver.late, Ms(r.scheduled.PercentileUs(0.50)),
      Ms(r.scheduled.PercentileUs(0.99)),
      Ms(r.scheduled.PercentileUs(0.999)),
      Ms(r.submitted.PercentileUs(0.50)),
      Ms(r.submitted.PercentileUs(0.99)),
      Ms(r.scheduled.PercentileUs(0.99) - r.submitted.PercentileUs(0.99)));
}

// Never-relaxed invariants every section must hold: pointwise-dominant
// scheduled percentiles and one terminal outcome per release event.
bool CheckInvariants(const char* section, const TraceReplayResult& r) {
  bool ok = true;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (r.scheduled.PercentileUs(q) < r.submitted.PercentileUs(q)) {
      std::printf(
          "ERROR: %s: scheduled p%g (%lld us) < submit p%g (%lld us) — "
          "scheduled latency must dominate pointwise\n",
          section, q * 100,
          static_cast<long long>(r.scheduled.PercentileUs(q)), q * 100,
          static_cast<long long>(r.submitted.PercentileUs(q)));
      ok = false;
    }
  }
  const size_t terminal = r.released + r.failed + r.exceptions +
                          r.rejected_budget + r.rejected_other;
  if (terminal != r.releases || r.scheduled.count() != r.releases ||
      r.submitted.count() != r.releases) {
    std::printf(
        "ERROR: %s: %zu release events but %zu terminal outcomes "
        "(%zu/%zu latency samples)\n",
        section, r.releases, terminal, r.scheduled.count(),
        r.submitted.count());
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.2);
  const size_t flood_events =
      strings::EnvSizeOr("PCOR_TRACE_EVENTS", 192);
  const bool relax_trace = strings::EnvSizeOr("PCOR_RELAX_TRACE", 0) != 0;
  PrintEnv(env,
           "open-loop trace replay: scheduled- vs submit-to-completion "
           "latency (BFS, lof detector; PCOR_TRACE_EVENTS scales the "
           "flood)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;

  PcorOptions release;
  release.sampler = SamplerKind::kBfs;
  release.num_samples = 20;
  release.total_epsilon = 0.2;

  BenchJsonEmitter emitter;
  bool ok = true;

  // ---- flood: the coordinated-omission demonstration -------------------
  {
    FloodTraceOptions trace_options;
    trace_options.duration_us = 400'000;
    trace_options.baseline_interval_us = 5'000;
    trace_options.flood_at_us = 100'000;
    trace_options.flood_events = std::max<size_t>(16, flood_events);
    trace_options.seed = env.seed;
    const std::vector<TraceEvent> trace = MakeFloodTrace(trace_options);

    ServeOptions serve;
    serve.release = release;
    serve.max_batch = 16;
    // Small queue, and admission blocks when it is full: the flood fills the
    // queue, the dispatch loop blocks in SubmitAsync, and every event
    // scheduled behind the burst goes out late — which is exactly what the
    // scheduled percentiles are there to expose.
    serve.queue_capacity = 64;
    serve.seed = env.seed;
    PcorServer server(*setup->engine, serve);

    TraceReplayOptions replay;
    replay.collector_threads = 4;
    auto result = ReplayTrace(server, trace, setup->outliers, replay);
    if (!result.ok()) {
      std::printf("flood replay: %s\n", result.status().ToString().c_str());
      return 1;
    }
    server.Shutdown();
    const ServerStats stats = server.stats();
    PrintSection("flood", *result);
    EmitSection(emitter, "flood", *result, stats.queue_high_water);
    for (const TenantReplayStats& tenant : result->tenants) {
      emitter.Emit(strings::Format(
          "{\"bench\":\"trace_replay_tenant\",\"section\":\"flood\","
          "\"tenant\":\"%s\",\"releases\":%zu,\"released\":%zu,"
          "\"failed\":%zu,\"rejected_budget\":%zu,\"rejected_other\":%zu,"
          "\"sched_p50_ms\":%.3f,\"sched_p99_ms\":%.3f,"
          "\"submit_p99_ms\":%.3f}",
          tenant.id.c_str(), tenant.releases, tenant.released,
          tenant.failed, tenant.rejected_budget, tenant.rejected_other,
          Ms(tenant.scheduled.PercentileUs(0.50)),
          Ms(tenant.scheduled.PercentileUs(0.99)),
          Ms(tenant.submitted.PercentileUs(0.99))));
    }
    ok = CheckInvariants("flood", *result) && ok;
    const int64_t gap_us = result->scheduled.PercentileUs(0.99) -
                           result->submitted.PercentileUs(0.99);
    if (gap_us <= 0) {
      if (relax_trace) {
        std::printf(
            "note: flood omission gap %.3f ms not positive "
            "(PCOR_RELAX_TRACE=1)\n",
            Ms(gap_us));
      } else {
        std::printf(
            "ERROR: flood trace shows no omission gap (%.3f ms) — the "
            "open-loop driver should outrun this queue; set "
            "PCOR_RELAX_TRACE=1 only for hosts fast enough to keep up\n",
            Ms(gap_us));
        ok = false;
      }
    }
  }

  // ---- diurnal: rate-swinging Poisson arrivals -------------------------
  {
    DiurnalTraceOptions trace_options;
    trace_options.duration_us = 500'000;
    trace_options.period_us = 250'000;
    trace_options.trough_releases_per_sec = 40;
    trace_options.peak_releases_per_sec = 400;
    trace_options.seed = env.seed;
    const std::vector<TraceEvent> trace = MakeDiurnalTrace(trace_options);

    ServeOptions serve;
    serve.release = release;
    serve.max_batch = 32;
    serve.queue_capacity = 256;
    serve.seed = env.seed;
    PcorServer server(*setup->engine, serve);

    TraceReplayOptions replay;
    replay.collector_threads = 4;
    auto result = ReplayTrace(server, trace, setup->outliers, replay);
    if (!result.ok()) {
      std::printf("diurnal replay: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    server.Shutdown();
    PrintSection("diurnal", *result);
    EmitSection(emitter, "diurnal", *result,
                server.stats().queue_high_water);
    ok = CheckInvariants("diurnal", *result) && ok;
  }

  // ---- storm: budget exhaustion with exact arithmetic ------------------
  {
    BudgetStormTraceOptions trace_options;
    trace_options.tenant_count = 4;
    trace_options.events_per_tenant = 8;
    // 0.25 and 1.0 are exact binary doubles: 4 admissions spend the cap
    // to the bit, the 5th is over. floor arithmetic without float fuzz.
    trace_options.epsilon_per_release = 0.25;
    trace_options.interval_us = 1'000;
    const std::vector<TraceEvent> trace =
        MakeBudgetStormTrace(trace_options);

    ServeOptions serve;
    serve.release = release;
    serve.max_batch = 16;
    serve.queue_capacity = 256;
    serve.per_client_epsilon_cap = 1.0;
    serve.seed = env.seed;
    PcorServer server(*setup->engine, serve);

    TraceReplayOptions replay;
    replay.collector_threads = 2;
    auto result = ReplayTrace(server, trace, setup->outliers, replay);
    if (!result.ok()) {
      std::printf("storm replay: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    server.Shutdown();
    PrintSection("storm", *result);
    EmitSection(emitter, "storm", *result, server.stats().queue_high_water);
    ok = CheckInvariants("storm", *result) && ok;
    // Admission order equals trace order (single dispatch thread), so per
    // tenant exactly floor(cap/eps) = 4 admissions succeed and the other
    // 4 are typed budget rejections. Never relaxed: this is arithmetic.
    const size_t expected_admitted = trace_options.tenant_count * 4;
    const size_t expected_rejected =
        trace_options.tenant_count * trace_options.events_per_tenant -
        expected_admitted;
    if (result->rejected_budget != expected_rejected ||
        result->released + result->failed != expected_admitted) {
      std::printf(
          "ERROR: storm: expected %zu admissions + %zu budget rejections, "
          "got %zu released + %zu failed, %zu rejected\n",
          expected_admitted, expected_rejected, result->released,
          result->failed, result->rejected_budget);
      ok = false;
    }
  }

  // ---- streaming: mixed append/seal/release, digest-stable -------------
  {
    Schema schema;
    schema.AddAttribute("A", {"a0", "a1", "a2"}).CheckOK();
    schema.AddAttribute("B", {"b0", "b1", "b2"}).CheckOK();
    ZscoreOptions zopts;
    zopts.threshold = 3.0;
    zopts.min_population = 4;
    ZscoreDetector detector(zopts);

    StreamingTraceOptions trace_options;
    trace_options.epochs = 3;
    trace_options.appends_per_epoch = 4;
    trace_options.rows_per_append = 16;
    trace_options.releases_per_epoch = 8;
    trace_options.epoch_interval_us = 50'000;
    trace_options.seed = env.seed;
    const std::vector<TraceEvent> trace =
        MakeStreamingTrace(trace_options);

    // Pool: planted-outlier row ids (stride 17) sealed by the FIRST
    // epoch, so every release is valid under the seal barrier.
    const uint64_t first_epoch_rows =
        trace_options.appends_per_epoch * trace_options.rows_per_append;
    std::vector<uint32_t> pool;
    for (uint64_t row = 0; row < first_epoch_rows; row += 17) {
      pool.push_back(static_cast<uint32_t>(row));
    }

    auto run = [&](size_t collector_threads,
                   TraceReplayResult* out) -> bool {
      StreamingPcorEngine stream(schema, detector);
      ServeOptions serve;
      serve.release = release;
      serve.release.num_samples = 8;
      serve.release.total_epsilon = 0.4;
      serve.max_batch = 16;
      serve.queue_capacity = 256;
      serve.seed = env.seed;
      PcorServer server(stream, serve);
      TraceReplayOptions replay;
      replay.collector_threads = collector_threads;
      replay.row_source = MakeUniformRowSource(schema, env.seed);
      auto result = ReplayTrace(server, trace, pool, replay);
      if (!result.ok()) {
        std::printf("streaming replay (%zu collectors): %s\n",
                    collector_threads, result.status().ToString().c_str());
        return false;
      }
      server.Shutdown();
      *out = std::move(*result);
      return true;
    };

    TraceReplayResult one, sixteen;
    if (!run(1, &one) || !run(16, &sixteen)) return 1;
    PrintSection("streaming", one);
    EmitSection(emitter, "streaming", one, 0);
    ok = CheckInvariants("streaming", one) && ok;
    // Never relaxed: the determinism contract extended to the open-loop
    // path — collector threading must not perturb any release payload or
    // the epoch numbering.
    if (one.release_digest != sixteen.release_digest ||
        one.final_epoch != sixteen.final_epoch) {
      std::printf(
          "ERROR: streaming replay not bit-identical across collector "
          "threads: digest %llx vs %llx, epoch %llu vs %llu\n",
          static_cast<unsigned long long>(one.release_digest),
          static_cast<unsigned long long>(sixteen.release_digest),
          static_cast<unsigned long long>(one.final_epoch),
          static_cast<unsigned long long>(sixteen.final_epoch));
      ok = false;
    }
    if (one.appends != sixteen.appends || one.seals != sixteen.seals ||
        one.append_errors + sixteen.append_errors != 0) {
      std::printf("ERROR: streaming replay append/seal accounting drifted "
                  "(%zu/%zu appends, %zu/%zu seals, %zu+%zu errors)\n",
                  one.appends, sixteen.appends, one.seals, sixteen.seals,
                  one.append_errors, sixteen.append_errors);
      ok = false;
    }
  }

  if (!emitter.ok()) return 1;
  if (!ok) {
    std::printf("FAILED: trace replay acceptance bars violated\n");
    return 1;
  }
  std::printf("ok: open-loop bars held (scheduled >= submit at every "
              "quantile; storm arithmetic exact; streaming digest stable)\n");
  return 0;
}
