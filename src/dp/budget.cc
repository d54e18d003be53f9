#include "src/dp/budget.h"

#include "src/common/logging.h"

namespace pcor {

std::string SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kDirect:
      return "direct";
    case SamplerKind::kUniform:
      return "uniform";
    case SamplerKind::kRandomWalk:
      return "random_walk";
    case SamplerKind::kDfs:
      return "dfs";
    case SamplerKind::kBfs:
      return "bfs";
  }
  return "unknown";
}

double Epsilon1ForTotal(SamplerKind kind, double total_epsilon,
                        size_t num_samples) {
  PCOR_CHECK(total_epsilon > 0) << "total epsilon must be positive";
  switch (kind) {
    case SamplerKind::kDirect:
    case SamplerKind::kUniform:
    case SamplerKind::kRandomWalk:
      return total_epsilon / 2.0;
    case SamplerKind::kDfs:
    case SamplerKind::kBfs:
      return total_epsilon /
             (2.0 * static_cast<double>(num_samples) + 2.0);
  }
  return total_epsilon / 2.0;
}

double TotalForEpsilon1(SamplerKind kind, double epsilon1,
                        size_t num_samples) {
  PCOR_CHECK(epsilon1 > 0) << "epsilon1 must be positive";
  switch (kind) {
    case SamplerKind::kDirect:
    case SamplerKind::kUniform:
    case SamplerKind::kRandomWalk:
      return 2.0 * epsilon1;
    case SamplerKind::kDfs:
    case SamplerKind::kBfs:
      return (2.0 * static_cast<double>(num_samples) + 2.0) * epsilon1;
  }
  return 2.0 * epsilon1;
}

}  // namespace pcor
