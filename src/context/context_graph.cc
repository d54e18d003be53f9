#include "src/context/context_graph.h"

namespace pcor {

void ContextGraph::ForEachNeighbor(
    const ContextVec& c,
    const std::function<void(const ContextVec&)>& fn) const {
  ContextVec neighbor = c;
  for (size_t bit = 0; bit < t_; ++bit) {
    neighbor.Flip(bit);
    fn(neighbor);
    neighbor.Flip(bit);  // restore
  }
}

std::vector<ContextVec> ContextGraph::MatchingNeighbors(
    const OutlierVerifier& verifier, const ContextVec& c,
    uint32_t v_row) const {
  std::vector<ContextVec> out;
  ForEachNeighbor(c, [&](const ContextVec& n) {
    if (verifier.IsOutlierInContext(n, v_row)) out.push_back(n);
  });
  return out;
}

LocalityStats MeasureLocality(const OutlierVerifier& verifier,
                              const ContextGraph& graph, uint32_t v_row,
                              const ContextVec& seed, size_t probes,
                              Rng* rng) {
  LocalityStats stats;
  const size_t t = graph.degree();

  size_t neighbor_matches = 0;
  size_t random_matches = 0;

  // Random walk over matching contexts starting at the seed; at each step
  // measure the fraction of matching neighbors, then move to one of them.
  ContextVec current = seed;
  for (size_t p = 0; p < probes; ++p) {
    auto matching = graph.MatchingNeighbors(verifier, current, v_row);
    stats.neighbor_probes += t;
    neighbor_matches += matching.size();
    if (!matching.empty()) {
      current = matching[rng->NextBounded(matching.size())];
    } else {
      current = seed;
    }

    // Paired uniform probe: a random vertex of the whole context graph
    // (the paper's hypothesis compares against "some randomly chosen
    // vertex among Vtx", not against contexts already containing V).
    ContextVec random_ctx(t);
    for (size_t bit = 0; bit < t; ++bit) {
      if (rng->NextBernoulli(0.5)) random_ctx.Set(bit);
    }
    ++stats.random_probes;
    if (verifier.IsOutlierInContext(random_ctx, v_row)) ++random_matches;
  }

  if (stats.neighbor_probes > 0) {
    stats.neighbor_match_rate = static_cast<double>(neighbor_matches) /
                                static_cast<double>(stats.neighbor_probes);
  }
  if (stats.random_probes > 0) {
    stats.random_match_rate = static_cast<double>(random_matches) /
                              static_cast<double>(stats.random_probes);
  }
  return stats;
}

}  // namespace pcor
