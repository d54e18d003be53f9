// Micro-benchmark for the batched release engine: ReleaseBatch over >= 100
// query outliers at 1/2/4/8 worker threads. Records wall time, speedup over
// the single-thread run, and shared-cache statistics, and verifies that
// every multi-thread run releases bit-identical contexts to the 1-thread
// run for the same seed (the engine's determinism contract). Every thread
// count emits one validated BENCH_JSON line for the CI perf artifact.
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

bool SameReleases(const BatchReleaseReport& a, const BatchReleaseReport& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const BatchEntry& x = a.entries[i];
    const BatchEntry& y = b.entries[i];
    if (x.status.ok() != y.status.ok()) return false;
    if (!x.status.ok()) continue;
    if (x.release.context != y.release.context ||
        x.release.utility_score != y.release.utility_score ||
        x.release.probes != y.release.probes) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.2);
  PrintEnv(env,
           "micro: batched release engine (BFS, eps=0.2, n=20, "
           "population-size utility)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;

  // >= 100 releases regardless of how many distinct outliers the pool
  // holds: cycle the pool, exactly like the paper's repeated trials.
  const size_t kBatchSize =
      std::max<size_t>(100, env.reps * setup->outliers.size());
  std::vector<uint32_t> rows(kBatchSize);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = setup->outliers[i % setup->outliers.size()];
  }
  std::printf("batch: %zu releases over %zu distinct outliers, %zu rows\n",
              rows.size(), setup->outliers.size(),
              setup->workload.data.dataset.num_rows());

  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 20;
  options.total_epsilon = 0.2;

  BenchJsonEmitter emitter;
  TableRenderer table({"Threads", "Wall", "Speedup", "Releases/s", "f_evals",
                       "Cache hits", "Evictions", "Resident MB", "Failures"});
  double base_seconds = 0.0;
  BatchReleaseReport baseline;
  bool identical = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    // The shared memo persists across runs; its counters' deltas around
    // the call are this batch's (nothing else runs on the engine).
    const VerifierStats before = setup->engine->verifier().Stats();
    const BatchReleaseReport report = setup->engine->ReleaseBatch(
        std::span<const uint32_t>(rows), options, env.seed, threads);
    const VerifierStats after = setup->engine->verifier().Stats();
    const size_t f_evals = after.evaluations - before.evaluations;
    const size_t cache_hits = after.cache_hits - before.cache_hits;
    if (threads == 1) {
      base_seconds = report.seconds;
      baseline = report;
    } else if (!SameReleases(baseline, report)) {
      identical = false;
      std::printf("ERROR: %zu-thread releases differ from 1-thread!\n",
                  threads);
    }
    table.AddRow({strings::Format("%zu", threads),
                  report::FormatRuntime(report.seconds),
                  strings::Format("%.2fx", base_seconds / report.seconds),
                  strings::Format("%.1f",
                                  static_cast<double>(rows.size()) /
                                      report.seconds),
                  strings::Format("%zu", f_evals),
                  strings::Format("%zu", cache_hits),
                  strings::Format("%zu", after.cache_evictions -
                                             before.cache_evictions),
                  strings::Format("%.2f",
                                  static_cast<double>(after.resident_bytes) /
                                      (1024.0 * 1024.0)),
                  strings::Format("%zu", report.failures)});
    emitter.Emit(strings::Format(
        "{\"bench\":\"micro_batch_release\",\"threads\":%zu,"
        "\"releases\":%zu,\"wall_s\":%.6f,\"speedup\":%.3f,"
        "\"releases_per_s\":%.1f,\"f_evals\":%zu,\"cache_hits\":%zu,"
        "\"failures\":%zu,\"kernel_backend\":\"%s\"}",
        threads, rows.size(), report.seconds,
        base_seconds / report.seconds,
        static_cast<double>(rows.size()) / report.seconds,
        f_evals, cache_hits, report.failures, simd::ActiveBackendName()));
  }

  report::SectionHeader("ReleaseBatch scaling");
  std::printf("%s", table.Render().c_str());
  report::Note(
      "speedup is bounded by the machine's core count; the later runs "
      "also start with a warm shared verifier cache (see f_evals)");
  std::printf("determinism across thread counts: %s\n",
              identical ? "IDENTICAL" : "MISMATCH");
  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (identical && emitter.ok()) ? 0 : 1;
}
