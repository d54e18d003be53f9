// Serving front-end throughput/latency bench: closed-loop client threads
// submit releases to a PcorServer (micro-batch coalescing over
// ReleaseBatch) and the bench sweeps the client count, reporting p50/p99
// submit-to-completion latency and releases/sec as `serve_throughput`
// BENCH_JSON lines. The budget and fairness scenarios replay traces
// open-loop through ReplayTrace (src/exp/trace_driver.h).
//
// Three enforced acceptance bars (exit non-zero on violation):
//   * the synthetic workload must sustain > 1 release/sec/core at the
//     highest client count (PCOR_RELAX_SERVE=1 downgrades to a note, for
//     emulated/overloaded hosts);
//   * a budget-capped client must see exactly floor(cap/eps) releases and
//     typed kPrivacyBudgetExceeded rejections for the rest — never a
//     silently clipped release;
//   * weighted-fair QoS: against a saturating weight-10 flood tenant, a
//     weight-1 tenant's releases/sec must stay within 2x of its
//     weight-proportional share. Algebraically this is a wall-RATIO bar —
//     the light tenant's last completion must land within ~85% of the
//     total wall — so it is independent of absolute host speed, but batch
//     shapes on a starved host can still distort it; PCOR_RELAX_FAIRNESS=1
//     relaxes it to a note (CI enforces it only in the bench-json job,
//     like the other timing-sensitive bars).
#include <algorithm>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/common/timer.h"
#include "src/exp/trace_driver.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

/// One point of the client sweep.
struct ClosedLoopRun {
  std::vector<double> latencies_s;  ///< exact, one per completed future
  size_t internal = 0;              ///< entries failed with kInternal
  ServerStats stats;                ///< read after a draining shutdown
  double wall_seconds = 0.0;        ///< server start to drained shutdown
};

double PerSecond(size_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

// `clients` threads, tenant "client-<c>" each, submit `per_client`
// releases apiece to one fresh server and block on every future before
// the next submission; coalescing happens across the other clients.
ClosedLoopRun RunClosedLoop(const Setup& setup, const ServeOptions& options,
                            size_t clients, size_t per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<size_t> internal(clients, 0);
  WallTimer wall;
  PcorServer server(*setup.engine, options);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string tenant = strings::Format("client-%zu", c);
      for (size_t k = 0; k < per_client; ++k) {
        BatchRequest request;
        request.v_row = setup.outliers[(c * 31 + k) % setup.outliers.size()];
        WallTimer latency;
        auto submitted = server.SubmitAsync(request, tenant);
        if (!submitted.ok()) continue;  // counted in ServerStats
        const BatchEntry entry = submitted->Get();
        latencies[c].push_back(latency.ElapsedSeconds());
        // kInternal: the micro-batch threw.
        if (entry.status.IsInternal()) ++internal[c];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Shutdown(/*drain=*/true);

  ClosedLoopRun run;
  run.wall_seconds = wall.ElapsedSeconds();
  run.stats = server.stats();
  for (size_t c = 0; c < clients; ++c) {
    run.latencies_s.insert(run.latencies_s.end(), latencies[c].begin(),
                           latencies[c].end());
    run.internal += internal[c];
  }
  return run;
}

// `count` release events for `tenant`, all due at t=0, cycling the
// outlier pool from `first_row`.
std::vector<TraceEvent> FloodTrace(const std::string& tenant, size_t count,
                                   uint64_t first_row) {
  std::vector<TraceEvent> trace(count);
  for (size_t k = 0; k < count; ++k) {
    trace[k].tenant = tenant;
    trace[k].rows = first_row + k;
  }
  return trace;
}

}  // namespace

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.2);
  PrintEnv(env,
           "serving front-end: PcorServer micro-batching over ReleaseBatch "
           "(BFS, eps=0.2, n=20, lof detector)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;

  ServeOptions base;
  base.release.sampler = SamplerKind::kBfs;
  base.release.num_samples = 20;
  base.release.total_epsilon = 0.2;

  const size_t total_requests =
      std::max<size_t>(64, env.reps * setup->outliers.size());
  const size_t cores = DefaultThreadCount();

  BenchJsonEmitter emitter;
  TableRenderer table({"Clients", "Requests", "Wall", "Releases/s", "p50",
                       "p99", "Batches", "MaxCoalesce", "Probe caps"});
  bool ok = true;
  double peak_releases_per_s = 0.0;
  for (size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         size_t{16}}) {
    ServeOptions options = base;
    options.max_batch = 32;
    options.queue_capacity = 256;
    options.seed = env.seed;
    const size_t per_client = std::max<size_t>(8, total_requests / clients);
    const auto run = RunClosedLoop(*setup, options, clients, per_client);
    const ServerStats& stats = run.stats;
    const size_t requests = clients * per_client;
    const size_t rejected_other =
        stats.rejected_queue + stats.rejected_depth + stats.rejected_invalid;
    if (stats.released + stats.failed != requests ||
        stats.rejected_budget != 0 || rejected_other != 0 ||
        run.internal != 0) {
      std::printf("ERROR: %zu clients: want %zu released + %zu failed == "
                  "%zu requests, no rejection and no kInternal entry "
                  "(rejected: %zu budget, %zu other; %zu kInternal)\n",
                  clients, stats.released, stats.failed, requests,
                  stats.rejected_budget, rejected_other, run.internal);
      ok = false;
    }
    const double releases_per_s = PerSecond(stats.released, run.wall_seconds);
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    if (!run.latencies_s.empty()) {
      p50_ms = Percentile(run.latencies_s, 0.50) * 1e3;
      p99_ms = Percentile(run.latencies_s, 0.99) * 1e3;
    }
    peak_releases_per_s = std::max(peak_releases_per_s, releases_per_s);
    table.AddRow({strings::Format("%zu", clients),
                  strings::Format("%zu", requests),
                  report::FormatRuntime(run.wall_seconds),
                  strings::Format("%.1f", releases_per_s),
                  strings::Format("%.2fms", p50_ms),
                  strings::Format("%.2fms", p99_ms),
                  strings::Format("%zu", stats.batches),
                  strings::Format("%zu", stats.max_coalesced),
                  strings::Format("%zu", stats.hit_probe_cap)});
    emitter.Emit(strings::Format(
        "{\"bench\":\"serve_throughput\",\"clients\":%zu,\"requests\":%zu,"
        "\"released\":%zu,\"failed\":%zu,\"wall_s\":%.6f,"
        "\"releases_per_s\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"batches\":%zu,\"max_coalesced\":%zu,\"epsilon_spent\":%.4f,"
        "\"kernel_backend\":\"%s\"}",
        clients, requests, stats.released, stats.failed, run.wall_seconds,
        releases_per_s, p50_ms, p99_ms, stats.batches, stats.max_coalesced,
        stats.epsilon_spent, simd::ActiveBackendName()));
  }

  report::SectionHeader("PcorServer scaling (closed-loop clients)");
  std::printf("%s", table.Render().c_str());
  report::Note(
      "p50/p99 are submit-to-completion latencies; dispatch never waits "
      "for stragglers, so a batch is whatever queued while the previous "
      "one ran (up to max_batch) and shares the verifier cache");

  // Bar 1: > 1 release/sec/core on the synthetic workload.
  const double per_core = peak_releases_per_s / static_cast<double>(cores);
  const bool relax = strings::EnvSizeOr("PCOR_RELAX_SERVE", 0) != 0;
  std::printf("peak throughput: %.1f releases/s over %zu cores "
              "(%.2f per core; bar: > 1)\n",
              peak_releases_per_s, cores, per_core);
  if (per_core <= 1.0) {
    if (relax) {
      report::Note("below the per-core bar, tolerated (PCOR_RELAX_SERVE=1)");
    } else {
      std::printf("ERROR: sustained %.2f releases/sec/core (need > 1)\n",
                  per_core);
      ok = false;
    }
  }

  // Bar 2: budget-capped clients are rejected with a typed Status, never a
  // silently clipped release. cap = 5 * eps admits exactly 5 per client;
  // admission order per tenant is trace order, so the split is exact.
  {
    ServeOptions options = base;
    options.seed = env.seed + 1;
    options.per_client_epsilon_cap = 5 * base.release.total_epsilon;
    constexpr size_t kClients = 2;
    constexpr size_t kRequestsPerClient = 8;
    std::vector<TraceEvent> trace;
    for (size_t c = 0; c < kClients; ++c) {
      const std::string tenant = strings::Format("client-%zu", c);
      const std::vector<TraceEvent> mine =
          FloodTrace(tenant, kRequestsPerClient, c * 31);
      trace.insert(trace.end(), mine.begin(), mine.end());
    }
    PcorServer server(*setup->engine, options);
    auto result = ReplayTrace(server, trace, setup->outliers);
    server.Shutdown(/*drain=*/true);
    if (!result.ok()) {
      std::printf("capped workload: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const size_t expect_admitted = 5 * kClients;
    const size_t expect_rejected =
        kClients * kRequestsPerClient - expect_admitted;
    std::printf("budget cap: %zu admitted (expect %zu), %zu typed budget "
                "rejections (expect %zu), %zu other rejections\n",
                result->released + result->failed, expect_admitted,
                result->rejected_budget, expect_rejected,
                result->rejected_other);
    if (result->released + result->failed != expect_admitted ||
        result->rejected_budget != expect_rejected ||
        result->rejected_other != 0) {
      std::printf("ERROR: budget cap did not reject exactly the overflow "
                  "with typed statuses\n");
      ok = false;
    }
  }

  // Bar 3: weighted-fair QoS under a 10:1 weight skew. A "heavy" tenant
  // floods 200 requests; once all of them have been admitted, a "light"
  // tenant floods its 8 into that backlog (the queue is sized to admit
  // both floods whole, so the scheduler alone decides the pick order).
  // Each tenant replays its own trace on its own thread, so each collects
  // only its own futures: the light tenant's last completion is never
  // recorded behind the heavy backlog. Under a global arrival order, or
  // longest-queue-first, light would wait behind the entire heavy backlog
  // (~1/26 of the service rate); deficit round robin must keep it within
  // 2x of its weight-proportional share (1/11).
  {
    ServeOptions options = base;
    options.max_batch = 32;
    options.queue_capacity = 1024;
    options.seed = env.seed + 2;
    struct Flood {
      const char* id;
      double weight;
      size_t requests;
    };
    constexpr Flood kFloods[] = {{"heavy", 10.0, 200}, {"light", 1.0, 8}};
    constexpr size_t kNumTenants = std::size(kFloods);

    PcorServer server(*setup->engine, options);
    for (size_t t = 0; t < kNumTenants; ++t) {
      TenantConfig config;
      config.weight = kFloods[t].weight;
      server.RegisterTenant(kFloods[t].id, config).CheckOK();
    }
    std::vector<Result<TraceReplayResult>> results(
        kNumTenants, Status::Internal("replay did not run"));
    // Every SubmitAsync return lands in exactly one of these counters.
    const auto admissions_returned = [&server] {
      const ServerStats stats = server.stats();
      return stats.submitted + stats.rejected_budget + stats.rejected_queue +
             stats.rejected_depth + stats.rejected_invalid;
    };
    WallTimer wall;
    std::vector<std::thread> replays;
    size_t earlier_requests = 0;
    for (size_t t = 0; t < kNumTenants; ++t) {
      // Each flood starts once every earlier one is admitted. Were they to
      // race, light could be served before heavy had queued anything, and
      // the bar could not tell DRR from an unfair pick order.
      while (admissions_returned() < earlier_requests) {
        std::this_thread::yield();
      }
      earlier_requests += kFloods[t].requests;
      replays.emplace_back([&, t] {
        const std::vector<TraceEvent> trace =
            FloodTrace(kFloods[t].id, kFloods[t].requests, t * 31);
        results[t] = ReplayTrace(server, trace, setup->outliers);
      });
    }
    for (std::thread& replay : replays) replay.join();
    server.Shutdown(/*drain=*/true);
    const double wall_seconds = wall.ElapsedSeconds();
    for (const Result<TraceReplayResult>& result : results) {
      if (!result.ok()) {
        std::printf("fairness workload: %s\n",
                    result.status().ToString().c_str());
        return 1;
      }
    }

    report::SectionHeader("weighted-fair QoS (weights 10:1, heavy flood)");
    TableRenderer fairness_table(
        {"Tenant", "Weight", "Released", "Wall", "Releases/s", "p99"});
    // A tenant's wall is its last completion: with every event due at
    // t=0, that is the exact max of its scheduled-to-completion latency.
    std::vector<double> tenant_rates(kNumTenants);
    size_t released = 0;
    size_t rejected_other = 0;
    size_t rejected_budget = 0;
    for (size_t t = 0; t < kNumTenants; ++t) {
      const TraceReplayResult& replay = *results[t];
      const double tenant_wall =
          static_cast<double>(replay.scheduled.max_us()) / 1e6;
      tenant_rates[t] = PerSecond(replay.released, tenant_wall);
      const double p99_ms =
          static_cast<double>(replay.submitted.PercentileUs(0.99)) / 1e3;
      released += replay.released;
      rejected_other += replay.rejected_other;
      rejected_budget += replay.rejected_budget;
      fairness_table.AddRow(
          {kFloods[t].id, strings::Format("%.0f", kFloods[t].weight),
           strings::Format("%zu", replay.released),
           report::FormatRuntime(tenant_wall),
           strings::Format("%.2f", tenant_rates[t]),
           strings::Format("%.2fms", p99_ms)});
      emitter.Emit(strings::Format(
          "{\"bench\":\"serve_fairness\",\"tenant\":\"%s\",\"weight\":%.0f,"
          "\"released\":%zu,\"wall_s\":%.6f,\"releases_per_s\":%.2f,"
          "\"p99_ms\":%.3f,\"kernel_backend\":\"%s\"}",
          kFloods[t].id, kFloods[t].weight, replay.released, tenant_wall,
          tenant_rates[t], p99_ms, simd::ActiveBackendName()));
    }
    std::printf("%s", fairness_table.Render().c_str());

    const double light_rate = tenant_rates[1];
    const double service_rate = PerSecond(released, wall_seconds);
    const double fair_share = service_rate * (1.0 / 11.0);
    const double floor = 0.5 * fair_share;
    const bool relax_fair =
        strings::EnvSizeOr("PCOR_RELAX_FAIRNESS", 0) != 0;
    std::printf("light tenant: %.2f releases/s; weight-proportional share "
                "%.2f, enforced floor %.2f (within 2x)\n",
                light_rate, fair_share, floor);
    if (rejected_other != 0 || rejected_budget != 0) {
      // Neither tenant has a depth bound or a budget cap here, so any
      // rejection means the queue failed to admit the floods whole.
      std::printf("ERROR: fairness workload saw rejections (%zu non-budget, "
                  "%zu budget) — the queue must admit both floods whole\n",
                  rejected_other, rejected_budget);
      ok = false;
    }
    if (light_rate < floor) {
      if (relax_fair) {
        report::Note(
            "below the fairness floor, tolerated (PCOR_RELAX_FAIRNESS=1)");
      } else {
        std::printf("ERROR: light tenant starved: %.2f releases/s < %.2f "
                    "(half of its weight-proportional share)\n",
                    light_rate, floor);
        ok = false;
      }
    }
  }

  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (ok && emitter.ok()) ? 0 : 1;
}
