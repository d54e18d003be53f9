#include "src/search/bfs.h"

#include <optional>

#include "src/dp/mechanism.h"
#include "src/search/walk_state.h"

namespace pcor {

Result<SamplerOutcome> BfsSampler::Sample(const SamplerRequest& request,
                                          Rng* rng) const {
  const OutlierVerifier& verifier = *request.verifier;

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
  // "pop" is an Exponential-mechanism draw. The walk table marks
  // frontier ∪ visited; the visited contexts are the samples.
  WalkState& walk = WalkState::Begin(verifier, request.v_row);
  std::vector<ContextVec>& frontier = walk.candidates();
  std::vector<double>& frontier_scores = walk.scores();
  frontier.push_back(request.start_context);
  frontier_scores.push_back(request.utility->ScoreMatch(
      request.start_context, request.v_row, *start_population));
  walk.Mark(request.start_context);
  // One lookup per unseen neighbour gives both the f_M verdict and |D_C|
  // for the score.
  auto push = [&](const ContextVec& neighbour, size_t population) {
    walk.Mark(neighbour);
    frontier.push_back(neighbour);
    frontier_scores.push_back(
        request.utility->ScoreMatch(neighbour, request.v_row, population));
  };

  while (out.samples.size() < request.num_samples && !frontier.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(frontier_scores, rng));
    out.samples.push_back(frontier[pick]);
    frontier[pick] = frontier.back();
    frontier.pop_back();
    frontier_scores[pick] = frontier_scores.back();
    frontier_scores.pop_back();
    walk.Expand(out.samples.back(), &out.probes, push);
  }
  if (out.samples.empty()) {
    return Status::NoValidContext("BFS visited no matching context");
  }
  return out;
}

}  // namespace pcor
