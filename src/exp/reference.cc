#include "src/exp/reference.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "src/common/threading.h"

namespace pcor {

Result<ReferenceTable> ReferenceTable::Build(
    const OutlierVerifier& verifier, const std::vector<uint32_t>& rows,
    const CoeOptions& options, ThreadPool* pool, size_t max_parallel) {
  ReferenceTable table;
  std::mutex mu;
  Status first_error;
  const auto build_row = [&](size_t i) {
    auto coe = EnumerateCoe(verifier, rows[i], options);
    std::lock_guard<std::mutex> lock(mu);
    if (!coe.ok()) {
      if (first_error.ok()) first_error = coe.status();
      return;
    }
    table.entries_.emplace(rows[i], std::move(coe).value());
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) build_row(i);
  } else {
    pool->ParallelFor(rows.size(), max_parallel, build_row);
  }
  if (!first_error.ok()) return first_error;
  return table;
}

const std::vector<ContextVec>* ReferenceTable::Coe(uint32_t row) const {
  auto it = entries_.find(row);
  return it == entries_.end() ? nullptr : &it->second;
}

double ReferenceTable::MaxUtility(uint32_t row,
                                  const UtilityFunction& utility) const {
  const auto* coe = Coe(row);
  double best = -std::numeric_limits<double>::infinity();
  if (coe == nullptr) return best;
  for (const ContextVec& c : *coe) {
    best = std::max(best, utility.Score(c, row));
  }
  return best;
}

}  // namespace pcor
