// Reproduces the Section 6.7 (objective ii) experiment: when neighboring
// datasets do NOT induce equal COE sets (so the OCDP precondition fails),
// measure the maximum selection-probability ratio over the shared contexts
// and compare it to the unconstrained-DP bound e^eps. The paper found no
// violation at eps = 0.2 across 200 outlier samples and three detectors;
// this bench reports the measured maxima.
//
// Gate, never relaxed: on f-neighbors (equal COE sets) Theorem 4.1 bounds
// the ratio by e^eps, so any viol(eq) > 0 is a bug and exits 1.
#include <cmath>

#include "bench/bench_util.h"
#include "src/data/neighbor.h"
#include "src/dp/ocdp.h"

using namespace pcor;
using namespace pcor::bench;

int main() {
  // COE enumeration per (outlier, neighbor) pair — quarter scale by
  // default, like the paper's Section 6.7 setup.
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.25);
  PrintEnv(env,
           "Section 6.7(ii): empirical privacy ratio on non-matching COEs "
           "(eps = 0.2 => eps1 = 0.1, bound e^0.2)");

  auto workload = MakeReducedSalaryWorkload(env.scale);
  workload.status().CheckOK();
  const double eps1 = 0.1;  // direct approach: eps = 2*eps1 = 0.2
  const size_t neighbors_per_outlier =
      strings::EnvSizeOr("PCOR_NEIGHBORS", 6);

  TableRenderer table({"Detector", "pairs", "coe-equal", "max ratio",
                       "bound e^0.2", "viol(eq)", "viol(noneq)"});

  size_t total_violations_equal = 0;
  for (const char* detector_name : {"grubbs", "lof", "histogram"}) {
    auto detector = MakeDetector(detector_name);
    detector.status().CheckOK();
    PopulationIndex index(workload->data.dataset);
    OutlierVerifier verifier(index, **detector);
    Rng rng(env.seed + 31);
    auto outliers = SelectQueryOutliers(
        verifier, workload->data.planted_outlier_rows, env.outliers, &rng);
    if (outliers.empty()) {
      std::printf("%s: no verified outliers, skipped\n", detector_name);
      continue;
    }

    double max_ratio = 1.0;
    size_t pairs = 0, equal = 0;
    size_t violations_equal = 0, violations_nonequal = 0;
    for (uint32_t v_row : outliers) {
      for (size_t k = 0; k < neighbors_per_outlier; ++k) {
        NeighborOptions options;
        options.delta = 1;
        options.protected_rows = {v_row};
        auto neighbor = MakeNeighbor(workload->data.dataset, options, &rng);
        if (!neighbor.ok()) continue;
        PopulationIndex index2(neighbor->dataset);
        OutlierVerifier verifier2(index2, **detector);
        auto result = MeasureEmpiricalPrivacy(
            verifier, verifier2, v_row, neighbor->row_mapping[v_row], eps1);
        if (!result.ok()) continue;
        ++pairs;
        equal += result->coe_equal;
        max_ratio = std::max(max_ratio, result->max_ratio);
        if (!result->within_bound) {
          // On f-neighbors the bound is Theorem 4.1 — a violation there
          // would be a bug. On non-equal COEs it is only the paper's
          // empirical observation (Section 6.7(ii)).
          (result->coe_equal ? violations_equal : violations_nonequal) += 1;
        }
      }
    }
    total_violations_equal += violations_equal;
    table.AddRow({detector_name, strings::Format("%zu", pairs),
                  strings::Format("%.0f%%",
                                  pairs ? 100.0 * equal / pairs : 0.0),
                  strings::Format("%.4f", max_ratio),
                  strings::Format("%.4f", std::exp(2 * eps1)),
                  strings::Format("%zu", violations_equal),
                  strings::Format("%zu", violations_nonequal)});
  }

  report::SectionHeader("Empirical privacy (measured)");
  std::printf("%s", table.Render().c_str());
  report::Note(
      "paper: across all experiments the ratio stayed below e^eps for "
      "eps = 0.2 — no instance violating unconstrained DP was found");
  report::Note(
      "viol(eq) must be 0 (Theorem 4.1). viol(noneq) counts pairs whose "
      "COE sets differ AND whose shared-context ratio exceeds the bound — "
      "the paper observed none on its datasets; a non-zero count here "
      "quantifies how far the OCDP relaxation can stretch on synthetic "
      "data when a high-utility context enters/leaves COE");
  const bool failed = total_violations_equal > 0;
  if (failed) {
    std::printf("FAILED: %zu f-neighbor pairs exceed e^eps (Theorem 4.1)\n",
                total_violations_equal);
  }
  std::printf("%s\n", failed ? "RESULT: FAIL" : "RESULT: OK");
  return failed ? 1 : 0;
}
