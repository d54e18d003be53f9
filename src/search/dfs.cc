#include "src/search/dfs.h"

#include <optional>
#include <unordered_set>

#include "src/dp/mechanism.h"

namespace pcor {

Result<SamplerOutcome> DfsSampler::Sample(const SamplerRequest& request,
                                          Rng* rng) const {
  const OutlierVerifier& verifier = *request.verifier;
  const size_t t = verifier.index().schema().total_values();

  if (!verifier.IsOutlierInContext(request.start_context, request.v_row)) {
    return Status::InvalidArgument(
        "DFS requires a matching starting context C_V");
  }
  if (request.utility == nullptr) {
    return Status::InvalidArgument("DFS requires a utility function");
  }
  ExponentialMechanism mech(request.epsilon1,
                            request.utility->sensitivity());

  SamplerOutcome out;
  std::vector<ContextVec> stack{request.start_context};
  std::unordered_set<ContextVec, ContextVecHash> visited;

  while (visited.size() < request.num_samples && !stack.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    ContextVec current = stack.back();
    if (visited.insert(current).second) {
      out.samples.push_back(current);
    }

    // Children: matching, unvisited neighbors of the stack top.
    std::vector<ContextVec> children;
    std::vector<double> scores;
    ContextVec neighbor = current;
    for (size_t bit = 0; bit < t; ++bit) {
      neighbor.Flip(bit);
      ++out.probes;
      // One memo lookup gives both the f_M verdict and |D_C| for the score.
      if (!visited.count(neighbor)) {
        if (const std::optional<size_t> population =
                verifier.OutlierPopulation(neighbor, request.v_row)) {
          children.push_back(neighbor);
          scores.push_back(request.utility->ScoreMatch(
              neighbor, request.v_row, *population));
        }
      }
      neighbor.Flip(bit);
    }

    if (children.empty()) {
      stack.pop_back();
      continue;
    }
    PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(scores, rng));
    stack.push_back(children[pick]);
  }
  if (out.samples.empty()) {
    return Status::NoValidContext("DFS visited no matching context");
  }
  return out;
}

}  // namespace pcor
