#pragma once

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/stats.h"
#include "src/exp/reference.h"
#include "src/search/pcor.h"

namespace pcor {

/// \brief Configuration of one experiment: repeated PCOR releases over a
/// pool of query outliers, mirroring the paper's 200-trial methodology
/// (Section 6.2).
struct TrialConfig {
  SamplerKind sampler = SamplerKind::kBfs;
  size_t num_samples = 50;
  double total_epsilon = 0.2;
  UtilityKind utility = UtilityKind::kPopulationSize;
  size_t trials = 30;
  uint64_t seed = 7;
  size_t threads = 1;
  size_t max_probes = 20'000'000;
};

/// \brief Per-experiment raw series plus summaries.
struct ExperimentResult {
  std::vector<double> utility_ratios;  ///< utility / reference max, per trial
  std::vector<double> runtimes;        ///< seconds, per trial
  size_t failures = 0;                 ///< trials whose release failed

  // Verifier hot-path accounting for the experiment's batch (exact deltas
  // of the engine's shared cache counters across the trial fan-out).
  size_t f_evaluations = 0;   ///< detector runs
  size_t cache_hits = 0;      ///< verifier cache hits
  size_t cache_evictions = 0; ///< LRU evictions under memory pressure
  std::string kernel_backend; ///< kernel path: scalar/sse2/avx2/avx512

  RuntimeSummary runtime() const { return SummarizeRuntimes(runtimes); }
  ConfidenceInterval utility_ci(double level = 0.90) const {
    return MeanConfidenceInterval(utility_ratios, level);
  }
  /// \brief Fraction of f_M probes served from the cache.
  double cache_hit_rate() const {
    const size_t probes = cache_hits + f_evaluations;
    return probes == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(probes);
  }
};

/// \brief Runs `config.trials` PCOR releases. Trials rotate round-robin
/// over `outlier_rows`; each trial uses an independent seeded Rng, and the
/// utility of the released context is normalized by the reference maximum
/// for that row (the paper's utility metric). The starting context and the
/// utility function are fixed per row (as in the paper, where C_V is a
/// given), so trial variance reflects only the mechanism's randomness.
Result<ExperimentResult> RunPcorExperiment(
    const PcorEngine& engine, const std::vector<uint32_t>& outlier_rows,
    const ReferenceTable& reference, const TrialConfig& config);

}  // namespace pcor
