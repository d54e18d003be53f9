#include "src/exp/experiment.h"

#include <algorithm>
#include <limits>
#include <span>

#include "src/context/starting_context.h"

namespace pcor {

Result<ExperimentResult> RunPcorExperiment(
    const PcorEngine& engine, const std::vector<uint32_t>& outlier_rows,
    const ReferenceTable& reference, const TrialConfig& config) {
  if (outlier_rows.empty()) {
    return Status::InvalidArgument("experiment needs at least one outlier");
  }
  if (config.trials == 0) {
    return Status::InvalidArgument("experiment needs at least one trial");
  }

  // Fix, per row: the starting context C_V, the utility function, and the
  // reference maximum utility.
  struct RowSetup {
    uint32_t row = 0;
    std::unique_ptr<UtilityFunction> utility;
    double max_utility = 0.0;
    bool usable = false;
  };
  std::vector<RowSetup> setups;
  setups.reserve(outlier_rows.size());
  Rng setup_rng(config.seed ^ 0x5bf03635ULL);
  for (uint32_t row : outlier_rows) {
    RowSetup setup;
    setup.row = row;
    StartingContextOptions start_options;
    Rng row_rng = setup_rng.Fork();
    auto start =
        FindStartingContext(engine.verifier(), row, start_options, &row_rng);
    if (!start.ok()) {
      setups.push_back(std::move(setup));  // unusable
      continue;
    }
    setup.utility =
        MakeUtility(config.release.utility, engine.verifier(), *start);
    setup.max_utility = reference.MaxUtility(row, *setup.utility);
    setup.usable = setup.max_utility >
                   -std::numeric_limits<double>::infinity();
    setups.push_back(std::move(setup));
  }
  // Keep only usable rows.
  std::vector<const RowSetup*> pool;
  for (const auto& s : setups) {
    if (s.usable && s.max_utility > 0) pool.push_back(&s);
  }
  if (pool.empty()) {
    return Status::NoValidContext(
        "no query outlier has a usable reference entry");
  }

  // Trials rotate round-robin over the usable rows; each trial pins its
  // row's fixed utility. The batch engine fans the trials out over its
  // ThreadPool with per-trial Rng streams derived from (seed, trial) — the
  // same derivation the pre-batch harness used, so results reproduce.
  std::vector<BatchRequest> requests(config.trials);
  std::vector<double> max_utilities(config.trials, 0.0);
  for (size_t trial = 0; trial < config.trials; ++trial) {
    const RowSetup& setup = *pool[trial % pool.size()];
    requests[trial].v_row = setup.row;
    requests[trial].utility = setup.utility.get();
    max_utilities[trial] = setup.max_utility;
  }
  const BatchReleaseReport report = engine.ReleaseBatch(
      std::span<const BatchRequest>(requests), config.release, config.seed,
      std::max<size_t>(config.threads, 1));

  ExperimentResult compact;
  compact.failures = report.failures;
  for (size_t trial = 0; trial < report.entries.size(); ++trial) {
    const BatchEntry& entry = report.entries[trial];
    if (!entry.status.ok()) continue;
    compact.utility_ratios.push_back(entry.release.utility_score /
                                     max_utilities[trial]);
    compact.runtimes.push_back(entry.release.seconds);
  }
  return compact;
}

}  // namespace pcor
