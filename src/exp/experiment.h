#pragma once

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
  /// The configuration every trial releases under.
  PcorOptions release;
  size_t trials = 30;
  uint64_t seed = 7;
  size_t threads = 1;
};

/// \brief Per-experiment raw series plus summaries.
struct ExperimentResult {
  std::vector<double> utility_ratios;  ///< utility / reference max, per trial
  std::vector<double> runtimes;        ///< seconds, per trial
  size_t failures = 0;                 ///< trials whose release failed

  RuntimeSummary runtime() const { return SummarizeRuntimes(runtimes); }
  ConfidenceInterval utility_ci(double level = 0.90) const {
    return MeanConfidenceInterval(utility_ratios, level);
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
