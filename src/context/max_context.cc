#include "src/context/max_context.h"

#include <optional>

#include "src/context/starting_context.h"

namespace pcor {

namespace {

// One steepest-ascent climb from `start` over matching contexts.
MaxContextResult Climb(const OutlierVerifier& verifier, uint32_t v_row,
                       const ContextVec& start, size_t max_steps) {
  const size_t t = verifier.index().schema().total_values();
  MaxContextResult best{start, verifier.index().PopulationCount(start)};
  ContextVec current = start;
  size_t current_pop = best.population;
  for (size_t step = 0; step < max_steps; ++step) {
    ContextVec best_neighbor = current;
    size_t best_pop = current_pop;
    ContextVec neighbor = current;
    for (size_t bit = 0; bit < t; ++bit) {
      neighbor.Flip(bit);
      const std::optional<size_t> pop =
          verifier.OutlierPopulation(neighbor, v_row);
      if (pop && *pop > best_pop) {
        best_pop = *pop;
        best_neighbor = neighbor;
      }
      neighbor.Flip(bit);
    }
    if (best_pop <= current_pop) break;  // local maximum
    current = best_neighbor;
    current_pop = best_pop;
  }
  if (current_pop > best.population) {
    best.context = current;
    best.population = current_pop;
  }
  return best;
}

}  // namespace

Result<MaxContextResult> FindMaxContext(const OutlierVerifier& verifier,
                                        uint32_t v_row,
                                        const MaxContextOptions& options,
                                        Rng* rng) {
  if (v_row >= verifier.index().num_rows()) {
    return Status::OutOfRange("v_row outside dataset");
  }
  StartingContextOptions start_options;
  start_options.pipeline = {StartingContextStrategy::kExactRecord,
                            StartingContextStrategy::kGreedyGrow,
                            StartingContextStrategy::kRandomValid};
  MaxContextResult best;
  bool found = false;
  for (size_t restart = 0; restart < std::max<size_t>(options.restarts, 1);
       ++restart) {
    // First restart: the deterministic pipeline; later restarts: random
    // valid contexts for diversity.
    Result<ContextVec> start =
        restart == 0
            ? FindStartingContext(verifier, v_row, start_options, rng)
            : [&]() -> Result<ContextVec> {
                StartingContextOptions random_only;
                random_only.pipeline = {
                    StartingContextStrategy::kRandomValid};
                random_only.random_attempts = 64;
                return FindStartingContext(verifier, v_row, random_only,
                                           rng);
              }();
    if (!start.ok()) continue;
    MaxContextResult result =
        Climb(verifier, v_row, *start, options.max_steps);
    if (!found || result.population > best.population) {
      best = result;
      found = true;
    }
  }
  if (!found) {
    return Status::NoValidContext(
        "no matching context found from any restart");
  }
  return best;
}

}  // namespace pcor
