// Serving front-end throughput/latency bench: closed-loop client threads
// submit releases to a PcorServer (micro-batch coalescing over
// ReleaseBatch) and the bench sweeps the client count, reporting p50/p99
// submit-to-completion latency and releases/sec — as aggregate
// `serve_throughput` BENCH_JSON lines plus one `serve_throughput_tenant`
// line per tenant (with a "tenant" field), so CI trend tracking can diff
// per-tenant fairness regressions, not just totals.
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

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/exp/serving.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

// One `serve_throughput_tenant` line per tenant of a workload, keyed by the
// sweep section it came from.
void EmitTenantLines(BenchJsonEmitter& emitter, const char* section,
                     size_t clients, const ServingResult& result) {
  for (const TenantResult& tenant : result.tenants) {
    emitter.Emit(strings::Format(
        "{\"bench\":\"serve_throughput_tenant\",\"section\":\"%s\","
        "\"clients\":%zu,\"tenant\":\"%s\",\"released\":%zu,"
        "\"failed\":%zu,\"rejected_budget\":%zu,\"rejected_queue\":%zu,"
        "\"wall_s\":%.6f,\"releases_per_s\":%.2f,\"p50_ms\":%.3f,"
        "\"p99_ms\":%.3f,\"kernel_backend\":\"%s\"}",
        section, clients, tenant.id.c_str(), tenant.released, tenant.failed,
        tenant.rejected_budget, tenant.rejected_queue, tenant.wall_seconds,
        tenant.releases_per_second(), tenant.latency_quantile(0.50) * 1e3,
        tenant.latency_quantile(0.99) * 1e3, simd::ActiveBackendName()));
  }
}

}  // namespace

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.2);
  PrintEnv(env,
           "serving front-end: PcorServer micro-batching over ReleaseBatch "
           "(BFS, eps=0.2, n=20, lof detector)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;

  PcorOptions release;
  release.sampler = SamplerKind::kBfs;
  release.num_samples = 20;
  release.total_epsilon = 0.2;

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
    ServingConfig config;
    config.clients = clients;
    config.requests_per_client =
        std::max<size_t>(8, total_requests / clients);
    config.serve.release = release;
    config.serve.max_batch = 32;
    config.serve.queue_capacity = 256;
    config.serve.seed = env.seed;
    auto result = RunServingWorkload(*setup->engine, setup->outliers, config);
    if (!result.ok()) {
      std::printf("serving workload: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const size_t requests = clients * config.requests_per_client;
    if (result->released + result->failed != requests ||
        result->rejected_budget != 0 || result->rejected_queue != 0) {
      std::printf("ERROR: %zu clients: %zu released + %zu failed != %zu "
                  "requests (rejected: %zu budget, %zu queue)\n",
                  clients, result->released, result->failed, requests,
                  result->rejected_budget, result->rejected_queue);
      ok = false;
    }
    const double p50_ms = result->latency_quantile(0.50) * 1e3;
    const double p99_ms = result->latency_quantile(0.99) * 1e3;
    peak_releases_per_s =
        std::max(peak_releases_per_s, result->releases_per_second());
    table.AddRow({strings::Format("%zu", clients),
                  strings::Format("%zu", requests),
                  report::FormatRuntime(result->wall_seconds),
                  strings::Format("%.1f", result->releases_per_second()),
                  strings::Format("%.2fms", p50_ms),
                  strings::Format("%.2fms", p99_ms),
                  strings::Format("%zu", result->batches),
                  strings::Format("%zu", result->max_coalesced),
                  strings::Format("%zu", result->hit_probe_cap)});
    emitter.Emit(strings::Format(
        "{\"bench\":\"serve_throughput\",\"clients\":%zu,\"requests\":%zu,"
        "\"released\":%zu,\"failed\":%zu,\"wall_s\":%.6f,"
        "\"releases_per_s\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"batches\":%zu,\"max_coalesced\":%zu,\"epsilon_spent\":%.4f,"
        "\"kernel_backend\":\"%s\"}",
        clients, requests, result->released, result->failed,
        result->wall_seconds, result->releases_per_second(), p50_ms, p99_ms,
        result->batches, result->max_coalesced, result->epsilon_spent,
        simd::ActiveBackendName()));
    EmitTenantLines(emitter, "sweep", clients, *result);
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
  // silently clipped release. cap = 5 * eps admits exactly 5 per client.
  {
    ServingConfig config;
    config.clients = 2;
    config.requests_per_client = 8;
    config.serve.release = release;
    config.serve.seed = env.seed + 1;
    config.serve.per_client_epsilon_cap = 5 * release.total_epsilon;
    auto result = RunServingWorkload(*setup->engine, setup->outliers, config);
    if (!result.ok()) {
      std::printf("capped workload: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const size_t expect_admitted = 5 * config.clients;
    const size_t expect_rejected =
        config.clients * config.requests_per_client - expect_admitted;
    std::printf("budget cap: %zu admitted (expect %zu), %zu typed budget "
                "rejections (expect %zu), %zu other rejections\n",
                result->released + result->failed, expect_admitted,
                result->rejected_budget, expect_rejected,
                result->rejected_queue);
    if (result->released + result->failed != expect_admitted ||
        result->rejected_budget != expect_rejected ||
        result->rejected_queue != 0) {
      std::printf("ERROR: budget cap did not reject exactly the overflow "
                  "with typed statuses\n");
      ok = false;
    }
  }

  // Bar 3: weighted-fair QoS under a 10:1 weight skew. A "heavy" tenant
  // floods 200 requests up-front (the queue is sized to admit them all, so
  // the scheduler alone decides the pick order); a "light" tenant floods
  // its 8 concurrently. Under FIFO the light tenant would wait behind the
  // entire heavy backlog (~1/26 of the service rate); deficit round robin
  // must keep it within 2x of its weight-proportional share (1/11).
  {
    ServingConfig config;
    config.serve.release = release;
    config.serve.scheduling = SchedulingPolicy::kWeightedFair;
    config.serve.max_batch = 32;
    config.serve.queue_capacity = 1024;
    config.serve.seed = env.seed + 2;

    TenantWorkload heavy;
    heavy.id = "heavy";
    heavy.tenant.weight = 10.0;
    heavy.requests_per_thread = 200;
    heavy.flood = true;
    TenantWorkload light;
    light.id = "light";
    light.tenant.weight = 1.0;
    light.requests_per_thread = 8;
    light.flood = true;
    config.tenants = {heavy, light};

    auto result = RunServingWorkload(*setup->engine, setup->outliers, config);
    if (!result.ok()) {
      std::printf("fairness workload: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    report::SectionHeader("weighted-fair QoS (weights 10:1, heavy flood)");
    TableRenderer fairness_table(
        {"Tenant", "Weight", "Released", "Wall", "Releases/s", "p99"});
    for (const TenantResult& tenant : result->tenants) {
      const double weight = tenant.id == "heavy" ? 10.0 : 1.0;
      fairness_table.AddRow(
          {tenant.id, strings::Format("%.0f", weight),
           strings::Format("%zu", tenant.released),
           report::FormatRuntime(tenant.wall_seconds),
           strings::Format("%.2f", tenant.releases_per_second()),
           strings::Format("%.2fms", tenant.latency_quantile(0.99) * 1e3)});
      emitter.Emit(strings::Format(
          "{\"bench\":\"serve_fairness\",\"tenant\":\"%s\",\"weight\":%.0f,"
          "\"released\":%zu,\"wall_s\":%.6f,\"releases_per_s\":%.2f,"
          "\"p99_ms\":%.3f,\"kernel_backend\":\"%s\"}",
          tenant.id.c_str(), weight, tenant.released, tenant.wall_seconds,
          tenant.releases_per_second(),
          tenant.latency_quantile(0.99) * 1e3, simd::ActiveBackendName()));
    }
    std::printf("%s", fairness_table.Render().c_str());

    const TenantResult& light_result = result->tenants[1];
    const double service_rate = result->releases_per_second();
    const double fair_share = service_rate * (1.0 / 11.0);
    const double floor = 0.5 * fair_share;
    const bool relax_fair =
        strings::EnvSizeOr("PCOR_RELAX_FAIRNESS", 0) != 0;
    std::printf("light tenant: %.2f releases/s; weight-proportional share "
                "%.2f, enforced floor %.2f (within 2x)\n",
                light_result.releases_per_second(), fair_share, floor);
    if (result->rejected_queue != 0 || result->rejected_budget != 0) {
      // rejected_queue lumps every non-budget refusal (global capacity,
      // depth bound, ...); neither tenant has a depth bound here, so any
      // count means the queue failed to admit the floods whole.
      std::printf("ERROR: fairness workload saw rejections (%zu non-budget, "
                  "%zu budget) — the queue must admit both floods whole\n",
                  result->rejected_queue, result->rejected_budget);
      ok = false;
    }
    if (light_result.releases_per_second() < floor) {
      if (relax_fair) {
        report::Note(
            "below the fairness floor, tolerated (PCOR_RELAX_FAIRNESS=1)");
      } else {
        std::printf("ERROR: light tenant starved: %.2f releases/s < %.2f "
                    "(half of its weight-proportional share)\n",
                    light_result.releases_per_second(), floor);
        ok = false;
      }
    }
  }

  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (ok && emitter.ok()) ? 0 : 1;
}
