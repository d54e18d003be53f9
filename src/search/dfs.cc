#include "src/search/dfs.h"

#include "src/dp/mechanism.h"
#include "src/search/walk_state.h"

namespace pcor {

Result<SamplerOutcome> DfsSampler::Sample(const SamplerRequest& request,
                                          Rng* rng) const {
  const OutlierVerifier& verifier = *request.verifier;

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
  // The walk table marks the visited contexts.
  WalkState& walk = WalkState::Begin(verifier, request.v_row);
  std::vector<ContextVec>& children = walk.candidates();
  std::vector<double>& scores = walk.scores();
  // Children: matching, unvisited neighbors of the stack top, from one
  // lookup each that gives both the f_M verdict and |D_C| for the score.
  auto add_child = [&](const ContextVec& neighbour, size_t population) {
    children.push_back(neighbour);
    scores.push_back(
        request.utility->ScoreMatch(neighbour, request.v_row, population));
  };

  while (out.samples.size() < request.num_samples && !stack.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    const ContextVec current = stack.back();
    if (walk.Mark(current)) out.samples.push_back(current);
    children.clear();
    scores.clear();
    walk.Expand(current, &out.probes, add_child);

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
