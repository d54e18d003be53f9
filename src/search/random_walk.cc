#include "src/search/random_walk.h"

#include <numeric>

namespace pcor {

Result<SamplerOutcome> RandomWalkSampler::Sample(
    const SamplerRequest& request, Rng* rng) const {
  const OutlierVerifier& verifier = *request.verifier;
  const size_t t = verifier.index().schema().total_values();

  if (!verifier.IsOutlierInContext(request.start_context, request.v_row)) {
    return Status::InvalidArgument(
        "random walk requires a matching starting context C_V");
  }

  SamplerOutcome out;
  out.samples.push_back(request.start_context);  // C_M = [C_V]

  ContextVec current = request.start_context;
  std::vector<size_t> untried;
  while (out.samples.size() < request.num_samples) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    // Untried neighbor bits of the current vertex, consumed without
    // replacement (the paper removes failed candidates from C_conn).
    untried.resize(t);
    std::iota(untried.begin(), untried.end(), 0);
    bool moved = false;
    while (!untried.empty()) {
      const size_t pick = rng->NextBounded(untried.size());
      const size_t bit = untried[pick];
      untried[pick] = untried.back();
      untried.pop_back();

      ContextVec candidate = current;
      candidate.Flip(bit);
      ++out.probes;
      if (verifier.IsOutlierInContext(candidate, request.v_row)) {
        out.samples.push_back(candidate);
        current = candidate;
        moved = true;
        break;
      }
    }
    if (!moved) break;  // every neighbor failed: the walk is stuck
  }
  return out;
}

}  // namespace pcor
