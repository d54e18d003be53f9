#pragma once

#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/context/coe.h"
#include "src/dp/utility.h"
#include "src/context/detector_cache.h"

namespace pcor {

class ThreadPool;

/// \brief The paper's "reference file" (Section 6.2): for each query
/// outlier, the full set of matching contexts. Utility normalization
/// divides a PCOR release's utility by the maximum utility over this set —
/// that maximum is exactly what the direct approach would (expensively)
/// compute.
class ReferenceTable {
 public:
  /// \brief Enumerates COE for every row in `rows`, one row per task on
  /// `pool` with at most `max_parallel` threads (caller included; 0 = no
  /// limit), or serially when `pool` is null. The verifier's memo cache is
  /// shared; the table is the same for every pool and thread count.
  static Result<ReferenceTable> Build(const OutlierVerifier& verifier,
                                      const std::vector<uint32_t>& rows,
                                      const CoeOptions& options = {},
                                      ThreadPool* pool = nullptr,
                                      size_t max_parallel = 0);

  /// \brief Matching contexts of `row`, or nullptr if the row was not part
  /// of the build.
  const std::vector<ContextVec>* Coe(uint32_t row) const;

  /// \brief max_{C in COE(row)} utility(C); -infinity when COE is empty.
  double MaxUtility(uint32_t row, const UtilityFunction& utility) const;

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<uint32_t, std::vector<ContextVec>> entries_;
};

}  // namespace pcor
