#pragma once

#include <functional>
#include <vector>

#include "src/common/random.h"
#include "src/context/context.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief The context graph of Section 5.2: vertices are all contexts over
/// the schema's attribute values; two contexts are adjacent iff their
/// Hamming distance is 1 (one attribute value added or removed). Every
/// vertex therefore has degree t. The graph is never materialized —
/// neighbors are generated by bit flips.
class ContextGraph {
 public:
  explicit ContextGraph(const Schema& schema)
      : schema_(&schema), t_(schema.total_values()) {}

  const Schema& schema() const { return *schema_; }

  /// \brief Vertex degree (= t, the context vector length).
  size_t degree() const { return t_; }

  /// \brief Applies fn to each of the t neighbors, in bit order.
  void ForEachNeighbor(const ContextVec& c,
                       const std::function<void(const ContextVec&)>& fn) const;

  /// \brief Neighbors that are *matching* contexts for row `v_row`; the
  /// locality measurement below walks these.
  std::vector<ContextVec> MatchingNeighbors(const OutlierVerifier& verifier,
                                            const ContextVec& c,
                                            uint32_t v_row) const;

 private:
  const Schema* schema_;
  size_t t_;
};

/// \brief Empirical test of the paper's locality hypothesis (Section 5.2):
/// "if V is an outlier in C, it is more probable to be an outlier in a
/// connected vertex than in a random vertex".
struct LocalityStats {
  double neighbor_match_rate = 0.0;  ///< P[neighbor of matching C matches]
  double random_match_rate = 0.0;    ///< P[uniform random context matches]
  size_t neighbor_probes = 0;
  size_t random_probes = 0;
};

/// \brief Probes locality around `seed` (which should be a matching context
/// for v_row): walks `probes` random matching contexts, measuring the
/// match rate of their neighbors, and compares with uniformly random
/// contexts that contain V.
LocalityStats MeasureLocality(const OutlierVerifier& verifier,
                              const ContextGraph& graph, uint32_t v_row,
                              const ContextVec& seed, size_t probes,
                              Rng* rng);

}  // namespace pcor
