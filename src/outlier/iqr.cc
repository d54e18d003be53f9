#include "src/outlier/iqr.h"

#include <algorithm>

#include "src/common/simd.h"
#include "src/common/stats.h"

namespace pcor {

IqrDetector::IqrDetector(IqrOptions options) : options_(options) {}

void IqrDetector::Detect(std::span<const double> values,
                         std::vector<size_t>* flagged) const {
  flagged->clear();
  if (values.empty() || values.size() < options_.min_population) return;
  // One sorted scratch copy serves both quartiles (the old code sorted the
  // sample twice, once per Percentile call).
  thread_local std::vector<double> sorted;
  sorted.assign(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double q1 = PercentileOfSorted(sorted, 0.25);
  const double q3 = PercentileOfSorted(sorted, 0.75);
  const double iqr = q3 - q1;
  const double lo = q1 - options_.multiplier * iqr;
  const double hi = q3 + options_.multiplier * iqr;
  simd::ScanOutsideRange(values, lo, hi, flagged);
}

}  // namespace pcor
