#include "src/search/bfs.h"

#include <optional>
#include <unordered_set>

#include "src/dp/mechanism.h"

namespace pcor {

Result<SamplerOutcome> BfsSampler::Sample(const SamplerRequest& request,
                                          Rng* rng) const {
  const OutlierVerifier& verifier = *request.verifier;
  const size_t t = verifier.index().schema().total_values();

  const std::optional<size_t> start_population =
      verifier.OutlierPopulation(request.start_context, request.v_row);
  if (!start_population) {
    return Status::InvalidArgument(
        "BFS requires a matching starting context C_V");
  }
  if (request.utility == nullptr) {
    return Status::InvalidArgument("BFS requires a utility function");
  }
  ExponentialMechanism mech(request.epsilon1,
                            request.utility->sensitivity());

  SamplerOutcome out;
  // Frontier with cached utility scores, treated as a priority queue whose
  // "pop" is an Exponential-mechanism draw.
  std::vector<ContextVec> frontier{request.start_context};
  std::vector<double> frontier_scores{request.utility->ScoreMatch(
      request.start_context, request.v_row, *start_population)};
  std::unordered_set<ContextVec, ContextVecHash> seen;  // frontier ∪ visited
  seen.insert(request.start_context);
  std::unordered_set<ContextVec, ContextVecHash> visited;

  while (visited.size() < request.num_samples && !frontier.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(frontier_scores, rng));
    ContextVec current = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    frontier_scores[pick] = frontier_scores.back();
    frontier_scores.pop_back();

    visited.insert(current);
    out.samples.push_back(current);

    ContextVec neighbor = current;
    for (size_t bit = 0; bit < t; ++bit) {
      neighbor.Flip(bit);
      ++out.probes;
      // One memo lookup gives both the f_M verdict and |D_C| for the score.
      if (!seen.count(neighbor)) {
        if (const std::optional<size_t> population =
                verifier.OutlierPopulation(neighbor, request.v_row)) {
          seen.insert(neighbor);
          frontier.push_back(neighbor);
          frontier_scores.push_back(request.utility->ScoreMatch(
              neighbor, request.v_row, *population));
        }
      }
      neighbor.Flip(bit);
    }
  }
  if (out.samples.empty()) {
    return Status::NoValidContext("BFS visited no matching context");
  }
  return out;
}

}  // namespace pcor
