// Micro-benchmark for the SIMD detector kernels: a per-tier sweep. Every
// registered detector runs the same populations under every kernel tier the
// host supports (scalar, then SSE2/AVX2/AVX-512 up to the best one), and
// every tier must flag the *identical* outlier index set as scalar (the
// kernels' lane-canonical parity contract). Tiers are interleaved within
// each repetition, so clock drift hits them alike.
//
// One validated `BENCH_JSON {...}` line per (detector, n, tier) feeds the
// CI BENCH_results.json artifact. Exit is non-zero on a parity mismatch in
// any tier, on a BENCH_JSON line that fails to parse, or — on AVX2-or-better
// hosts, unless PCOR_RELAX_SPEEDUP=1 — when zscore/grubbs on the best tier
// miss the 1.5x speedup bar over scalar at n >= 4096.
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

// Scalar first: every other tier is compared against it. Spelled out
// rather than simd::SupportedBackends() so this file also builds against
// older trees, for before/after sweeps.
std::vector<simd::Backend> SupportedTiers() {
  std::vector<simd::Backend> tiers;
  for (int b = 0; b <= static_cast<int>(simd::BestSupportedBackend()); ++b) {
    tiers.push_back(static_cast<simd::Backend>(b));
  }
  return tiers;
}

struct TierTiming {
  std::vector<double> seconds;  // one full Detect() per repetition
  std::vector<size_t> flagged;
};

// Nearest-rank quantile of `samples` (taken by value: it is sorted here).
double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5)];
}

}  // namespace

int main() {
  const simd::Backend best = simd::BestSupportedBackend();
  const bool enforce_speedup =
      best >= simd::Backend::kAvx2 &&
      strings::EnvSizeOr("PCOR_RELAX_SPEEDUP", 0) == 0;
  std::printf(
      "micro: detector kernels, per-tier sweep (best backend: %s; "
      "speedup bar %s)\n",
      simd::BackendName(best), enforce_speedup ? "ENFORCED" : "informational");

  const size_t max_n =
      strings::EnvSizeOr("PCOR_BENCH_MAX_N", size_t{1} << 16);
  std::vector<size_t> sizes;
  for (size_t n = 1024; n <= max_n; n *= 4) sizes.push_back(n);
  const std::vector<simd::Backend> tiers = SupportedTiers();

  BenchJsonEmitter emitter;
  TableRenderer table({"Detector", "n", "Tier", "ns/elem [q1, q3]",
                       "vs scalar", "Outliers", "Parity"});
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

      std::vector<TierTiming> timings(tiers.size());
      for (size_t r = 0; r < reps; ++r) {
        for (size_t t = 0; t < tiers.size(); ++t) {
          simd::SetBackendForTest(tiers[t]);
          WallTimer timer;
          (*detector)->Detect(values, &timings[t].flagged);
          timings[t].seconds.push_back(timer.ElapsedSeconds());
        }
      }

      const double per_elem = 1e9 / static_cast<double>(n);
      const double scalar_ns = Quantile(timings[0].seconds, 0.5) * per_elem;
      for (size_t t = 0; t < tiers.size(); ++t) {
        const simd::Backend tier = tiers[t];
        const TierTiming& timing = timings[t];
        const double ns = Quantile(timing.seconds, 0.5) * per_elem;
        const double q1 = Quantile(timing.seconds, 0.25) * per_elem;
        const double q3 = Quantile(timing.seconds, 0.75) * per_elem;
        const double speedup = ns > 0.0 ? scalar_ns / ns : 0.0;
        const bool identical = timing.flagged == timings[0].flagged;
        parity_ok = parity_ok && identical;
        const bool bar_applies =
            enforce_speedup && tier == best && n >= 4096 &&
            (name == "zscore" || name == "grubbs");
        if (bar_applies && speedup < 1.5) speedup_ok = false;

        table.AddRow({name, strings::Format("%zu", n), simd::BackendName(tier),
                      strings::Format("%.3f [%.3f, %.3f]", ns, q1, q3),
                      strings::Format("%.2fx%s", speedup,
                                      bar_applies && speedup < 1.5 ? " MISS"
                                                                   : ""),
                      strings::Format("%zu", timing.flagged.size()),
                      identical ? "OK" : "MISMATCH"});
        emitter.Emit(strings::Format(
            "{\"bench\":\"micro_detectors\",\"detector\":\"%s\",\"n\":%zu,"
            "\"tier\":\"%s\",\"best\":%s,\"ns_per_elem\":%.3f,"
            "\"ns_per_elem_q1\":%.3f,\"ns_per_elem_q3\":%.3f,"
            "\"speedup\":%.3f,\"outliers\":%zu,\"parity\":%s}",
            name.c_str(), n, simd::BackendName(tier),
            tier == best ? "true" : "false", ns, q1, q3, speedup,
            timing.flagged.size(), identical ? "true" : "false"));
      }
    }
  }
  report::SectionHeader("detector kernels: every supported tier vs scalar");
  std::printf("%s", table.Render().c_str());
  report::Note(
      "median [quartiles] of repeated full Detect() calls, tiers "
      "interleaved per repetition; parity requires every tier to flag "
      "exactly scalar's index set");
  std::printf("per-tier parity with scalar: %s\n",
              parity_ok ? "IDENTICAL" : "MISMATCH");
  if (enforce_speedup) {
    std::printf("zscore/grubbs best tier >= 1.5x at n >= 4096: %s\n",
                speedup_ok ? "PASS" : "FAIL");
  }
  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (parity_ok && speedup_ok && emitter.ok()) ? 0 : 1;
}
