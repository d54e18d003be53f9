#pragma once

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/data/generator.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief A named dataset workload for the experiment harness: the
/// generated data plus its planted-outlier rows.
struct Workload {
  std::string name;
  GeneratedData data;
};

/// \brief The paper's four dataset configurations (Section 6.1/6.7),
/// reproduced synthetically — see DESIGN.md §4 for the substitution
/// argument. `scale` in (0, 1] shrinks the row count proportionally so the
/// default benchmark run finishes quickly; scale = 1 is the paper's size.
Result<Workload> MakeReducedSalaryWorkload(double scale = 1.0);
Result<Workload> MakeFullSalaryWorkload(double scale = 1.0);
Result<Workload> MakeReducedHomicideWorkload(double scale = 1.0);
Result<Workload> MakeFullHomicideWorkload(double scale = 1.0);

/// \brief Filters `candidates` down to rows that are verified contextual
/// outliers under `verifier` (a matching starting context exists), keeping
/// at most `max_outliers`, chosen deterministically from `rng`, in
/// ascending row order.
///
/// The candidates are shuffled with `rng` and examined in that order, each
/// with its own FindStartingContext stream forked from `rng`, until the
/// quota is met. The start searches run in waves of
/// min(candidates left, quota left) on `verifier.index().probe_pool()`
/// (serially when the probe has no pool). The streams are forked in
/// shuffled order before each wave, so the same candidates are searched
/// with the same streams as one at a time: the result, and the state `rng`
/// is left in, are identical for every thread count.
std::vector<uint32_t> SelectQueryOutliers(
    const OutlierVerifier& verifier,
    const std::vector<uint32_t>& candidates, size_t max_outliers, Rng* rng);

}  // namespace pcor
