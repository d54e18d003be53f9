#pragma once

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/context/context.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief Options for FindStartingContext. The start search is one fixed
/// sequence, so this struct has no fields. It stays, with
/// PcorOptions::starting_context and FindStartingContext's options
/// parameter, so that existing callers keep compiling.
struct StartingContextOptions {
  /// Memberwise equality, so per-request PcorOptions overrides can be
  /// compared against a batch's defaults (see BatchRequest::options).
  bool operator==(const StartingContextOptions&) const = default;
};

/// \brief Finds a matching (valid) context for row `v_row`: the starting
/// context C_V that the graph-based samplers walk from (the paper assumes
/// the data owner "can obtain this context through an initial search",
/// footnote 5). The search is one fixed sequence; the first step that
/// yields a matching context wins:
///   1. Best of 8 random contexts containing V: the matching one with the
///      largest population. It lands on a mid-utility valid context, which
///      puts the DP-BFS/DFS Exponential-mechanism draws into their directed
///      regime (eps1 * u >> 1) from the first step.
///   2. Greedy growth: start from V's exact record and add, one value at a
///      time, a value that makes the context match, else the one that grows
///      the population most (ties to the smallest bit), up to the full
///      domain. Deterministic; it checks the exact and the full context.
///   3. Up to 512 random contexts containing V, the first matching one.
/// Steps 1 and 3 draw from `rng` and are skipped when it is null.
///
/// Returns NoValidContext when every step fails: V is then not a
/// contextual outlier under this detector and PCOR has nothing to release.
Result<ContextVec> FindStartingContext(const OutlierVerifier& verifier,
                                       uint32_t v_row,
                                       const StartingContextOptions& options,
                                       Rng* rng);

}  // namespace pcor
