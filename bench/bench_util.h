#pragma once

// Shared setup for the table-reproduction benchmarks.
//
// Every bench honors three environment variables so the same binaries scale
// from a quick CI run to the paper's full methodology:
//   PCOR_REPS    trials per configuration   (default 30;  paper: 200)
//   PCOR_SCALE   dataset scale in (0, 1]    (default 1.0 = the paper's
//                reduced-dataset size; COE-enumeration benches default
//                lower, see their headers)
//   PCOR_OUTLIERS query outliers per pool   (default 4;   paper: up to 200)

#include <cstdio>
#include <memory>

#include "src/common/string_util.h"
#include "src/common/threading.h"
#include "src/exp/experiment.h"
#include "src/exp/report.h"
#include "src/exp/workloads.h"
#include "src/outlier/detector.h"
#include "src/search/pcor.h"

namespace pcor {
namespace bench {

struct BenchEnv {
  size_t reps = 30;
  double scale = 1.0;
  size_t outliers = 4;
  size_t threads = DefaultThreadCount();
  uint64_t seed = 2021;
};

inline BenchEnv ReadBenchEnv(double default_scale = 1.0) {
  BenchEnv env;
  env.reps = strings::EnvSizeOr("PCOR_REPS", env.reps);
  env.scale = strings::EnvDoubleOr("PCOR_SCALE", default_scale);
  env.outliers = strings::EnvSizeOr("PCOR_OUTLIERS", env.outliers);
  env.threads = strings::EnvSizeOr("PCOR_THREADS", env.threads);
  env.seed = strings::EnvSizeOr("PCOR_SEED", env.seed);
  return env;
}

inline void PrintEnv(const BenchEnv& env, const char* what) {
  std::printf(
      "%s\n(PCOR_REPS=%zu trials, PCOR_SCALE=%.3g dataset scale, "
      "%zu query outliers, %zu threads; paper: 200 trials, full scale)\n",
      what, env.reps, env.scale, env.outliers, env.threads);
}

/// One (workload, detector, engine, outlier pool, reference) bundle.
struct Setup {
  Workload workload;
  std::unique_ptr<OutlierDetector> detector;
  std::unique_ptr<PcorEngine> engine;
  std::vector<uint32_t> outliers;
  ReferenceTable reference;
};

/// Builds the paper's default experimental substrate: reduced salary
/// dataset + the named detector. Returns nullptr (with a message) when no
/// planted outlier verifies under the detector.
inline std::unique_ptr<Setup> MakeSalarySetup(const BenchEnv& env,
                                              const std::string& detector) {
  auto bundle = std::make_unique<Setup>();
  auto workload = MakeReducedSalaryWorkload(env.scale);
  if (!workload.ok()) {
    std::printf("workload: %s\n", workload.status().ToString().c_str());
    return nullptr;
  }
  bundle->workload = std::move(*workload);
  auto det = MakeDetector(detector);
  if (!det.ok()) {
    std::printf("detector: %s\n", det.status().ToString().c_str());
    return nullptr;
  }
  bundle->detector = std::move(*det);
  bundle->engine = std::make_unique<PcorEngine>(
      bundle->workload.data.dataset, *bundle->detector);
  Rng rng(env.seed);
  // Over-sample candidates, then keep the most *significant* outliers —
  // the ones whose best explanation context covers the largest population.
  // The paper's utility metric equates population with significance
  // (Section 3.2.1); querying insignificant outliers (max context a few
  // percent of the data) pins eps1 * u << 1 where every mechanism is
  // near-uniform. Recorded in EXPERIMENTS.md.
  std::vector<uint32_t> candidates = SelectQueryOutliers(
      bundle->engine->verifier(), bundle->workload.data.planted_outlier_rows,
      env.outliers * 3, &rng);
  if (candidates.empty()) {
    std::printf("no planted outlier verifies under detector '%s'\n",
                detector.c_str());
    return nullptr;
  }
  // On the engine's own pool, so the build starts no threads of its own.
  auto reference = ReferenceTable::Build(
      bundle->engine->verifier(), candidates, CoeOptions{},
      bundle->engine->probe().probe_pool(), env.threads);
  if (!reference.ok()) {
    std::printf("reference: %s\n", reference.status().ToString().c_str());
    return nullptr;
  }
  bundle->reference = std::move(*reference);
  PopulationSizeUtility significance(bundle->engine->verifier());
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](uint32_t a, uint32_t b) {
                     return bundle->reference.MaxUtility(a, significance) >
                            bundle->reference.MaxUtility(b, significance);
                   });
  if (candidates.size() > env.outliers) candidates.resize(env.outliers);
  std::sort(candidates.begin(), candidates.end());
  bundle->outliers = std::move(candidates);
  return bundle;
}

/// Runs one experiment configuration against a setup.
inline Result<ExperimentResult> RunConfig(const Setup& setup,
                                          const BenchEnv& env,
                                          SamplerKind sampler,
                                          UtilityKind utility,
                                          double epsilon, size_t num_samples) {
  TrialConfig config;
  config.release.sampler = sampler;
  config.release.utility = utility;
  config.release.total_epsilon = epsilon;
  config.release.num_samples = num_samples;
  config.trials = env.reps;
  config.seed = env.seed;
  config.threads = env.threads;
  return RunPcorExperiment(*setup.engine, setup.outliers, setup.reference,
                           config);
}

}  // namespace bench
}  // namespace pcor
