// Micro-benchmark for the SIMD detector kernels: every registered detector
// runs the same populations under the forced-scalar path and the
// runtime-dispatched path (SSE2/AVX2 when the CPU has it), verifying that
// both flag the *identical* outlier index set (the kernels' lane-canonical
// parity contract) and reporting the speedup per population size.
//
// One validated `BENCH_JSON {...}` line per (detector, n) feeds the CI
// BENCH_results.json artifact. Exit is non-zero on parity mismatch, on a
// BENCH_JSON line that fails to parse, or — on AVX2-or-better hosts, unless
// PCOR_RELAX_SPEEDUP=1 — when zscore/grubbs miss the 1.5x speedup bar at
// n >= 4096 (the tentpole's acceptance criterion; informational elsewhere).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/exp/report.h"
#include "src/outlier/detector.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

std::vector<double> MakeValues(size_t n) {
  Rng rng(3);
  std::vector<double> values(n);
  for (auto& v : values) v = 100.0 + 15.0 * rng.NextGaussian();
  // A handful of planted outliers keeps Grubbs' remove-and-retest loop
  // honest (several full passes) without dominating the population.
  for (size_t i = 0; i < std::max<size_t>(1, n / 1024); ++i) {
    values[(i * 131 + n / 2) % n] = 400.0 + 10.0 * static_cast<double>(i);
  }
  return values;
}

/// Median-of-reps wall time for one full Detect() over `values`.
double TimeDetect(const OutlierDetector& detector,
                  const std::vector<double>& values, size_t reps,
                  std::vector<size_t>* flagged) {
  std::vector<double> times;
  times.reserve(reps);
  for (size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    detector.Detect(values, flagged);
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  const simd::Backend best = simd::BestSupportedBackend();
  const bool enforce_speedup =
      best >= simd::Backend::kAvx2 &&
      strings::EnvSizeOr("PCOR_RELAX_SPEEDUP", 0) == 0;
  std::printf(
      "micro: detector kernels, scalar vs dispatched (best backend: %s; "
      "speedup bar %s)\n",
      simd::BackendName(best), enforce_speedup ? "ENFORCED" : "informational");

  const size_t max_n =
      strings::EnvSizeOr("PCOR_BENCH_MAX_N", size_t{1} << 16);
  std::vector<size_t> sizes;
  for (size_t n = 1024; n <= max_n; n *= 4) sizes.push_back(n);

  BenchJsonEmitter emitter;
  TableRenderer table({"Detector", "n", "Scalar", "Dispatched", "Speedup",
                       "Outliers", "Parity"});
  bool parity_ok = true;
  bool speedup_ok = true;

  for (const std::string& name : RegisteredDetectorNames()) {
    auto detector = MakeDetector(name);
    if (!detector.ok()) {
      std::printf("detector %s: %s\n", name.c_str(),
                  detector.status().ToString().c_str());
      return 1;
    }
    for (size_t n : sizes) {
      const std::vector<double> values = MakeValues(n);
      // Repetitions scale inversely with n so every cell costs roughly the
      // same wall time; LOF pays an extra sort per call, hence the floor.
      const size_t reps = std::max<size_t>(
          5, strings::EnvSizeOr("PCOR_REPS", 0) != 0
                 ? strings::EnvSizeOr("PCOR_REPS", 0)
                 : (size_t{1} << 21) / n);

      simd::SetBackendForTest(simd::Backend::kScalar);
      std::vector<size_t> scalar_flagged;
      const double scalar_s =
          TimeDetect(**detector, values, reps, &scalar_flagged);

      simd::SetBackendForTest(best);
      std::vector<size_t> simd_flagged;
      const double simd_s =
          TimeDetect(**detector, values, reps, &simd_flagged);

      const bool identical = scalar_flagged == simd_flagged;
      parity_ok = parity_ok && identical;
      const double speedup = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
      const bool bar_applies =
          enforce_speedup && n >= 4096 &&
          (name == "zscore" || name == "grubbs");
      if (bar_applies && speedup < 1.5) speedup_ok = false;

      table.AddRow({name, strings::Format("%zu", n),
                    strings::Format("%.1f us", scalar_s * 1e6),
                    strings::Format("%.1f us", simd_s * 1e6),
                    strings::Format("%.2fx%s", speedup,
                                    bar_applies && speedup < 1.5 ? " MISS"
                                                                 : ""),
                    strings::Format("%zu", simd_flagged.size()),
                    identical ? "OK" : "MISMATCH"});
      emitter.Emit(strings::Format(
          "{\"bench\":\"micro_detectors\",\"detector\":\"%s\",\"n\":%zu,"
          "\"backend\":\"%s\",\"scalar_ns_per_elem\":%.3f,"
          "\"simd_ns_per_elem\":%.3f,\"speedup\":%.3f,\"outliers\":%zu,"
          "\"parity\":%s}",
          name.c_str(), n, simd::BackendName(best),
          scalar_s * 1e9 / static_cast<double>(n),
          simd_s * 1e9 / static_cast<double>(n), speedup,
          simd_flagged.size(), identical ? "true" : "false"));
    }
  }

  report::SectionHeader("detector kernels: scalar vs dispatched");
  std::printf("%s", table.Render().c_str());
  report::Note(
      "median of repeated full Detect() calls; parity requires the exact "
      "same flagged index set from both paths");
  std::printf("scalar/SIMD parity: %s\n", parity_ok ? "IDENTICAL" : "MISMATCH");
  if (enforce_speedup) {
    std::printf("zscore/grubbs >= 1.5x at n >= 4096: %s\n",
                speedup_ok ? "PASS" : "FAIL");
  }
  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (parity_ok && speedup_ok && emitter.ok()) ? 0 : 1;
}
