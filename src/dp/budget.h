#pragma once

#include <cstddef>
#include <string>

namespace pcor {

/// \brief The five release algorithms of the paper, by sampling layer.
enum class SamplerKind {
  kDirect,      ///< Algorithm 1 — exhaustive COE + Exponential mechanism
  kUniform,     ///< Algorithm 2 — uniform candidate sampling
  kRandomWalk,  ///< Algorithm 3 — random walk on the context graph
  kDfs,         ///< Algorithm 4 — differentially private depth-first search
  kBfs,         ///< Algorithm 5 — differentially private breadth-first search
};

std::string SamplerKindName(SamplerKind kind);

/// \brief OCDP budget accounting for each algorithm.
///
/// Per Theorems 4.1/5.1/5.3, Direct, Uniform and Random-walk spend
/// epsilon = 2*eps1 (one Exponential-mechanism draw decides the output).
/// Per Theorems 5.5/5.7, DP-DFS and DP-BFS spend epsilon = (2n+2)*eps1:
/// every one of the n internal selection steps leaks 2*eps1 and the final
/// draw adds 2*eps1 more. These helpers convert between the total OCDP
/// budget and the per-draw eps1 (assuming sensitivity 1, the utility
/// functions' contract).
double Epsilon1ForTotal(SamplerKind kind, double total_epsilon,
                        size_t num_samples);
double TotalForEpsilon1(SamplerKind kind, double epsilon1,
                        size_t num_samples);

}  // namespace pcor
