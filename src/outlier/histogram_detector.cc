#include "src/outlier/histogram_detector.h"

#include <algorithm>
#include <cmath>

#include "src/common/simd.h"

namespace pcor {

HistogramDetector::HistogramDetector(HistogramDetectorOptions options)
    : options_(options) {}

void HistogramDetector::Detect(std::span<const double> values,
                               std::vector<size_t>* flagged) const {
  flagged->clear();
  const size_t n = values.size();
  if (n == 0 || n < options_.min_population) return;

  const simd::MinMax mm = simd::MinMaxOf(values);
  const double lo = mm.min;
  const double hi = mm.max;
  if (!(hi > lo)) return;  // constant sample

  const size_t bins = std::max<size_t>(
      1, static_cast<size_t>(std::llround(std::sqrt(
             static_cast<double>(n)))));
  const double width = (hi - lo) / static_cast<double>(bins);

  auto bin_of = [&](double x) {
    long b = static_cast<long>((x - lo) / width);
    if (b < 0) b = 0;
    if (b >= static_cast<long>(bins)) b = static_cast<long>(bins) - 1;
    return static_cast<size_t>(b);
  };

  thread_local std::vector<size_t> counts;
  counts.assign(bins, 0);
  for (double v : values) ++counts[bin_of(v)];

  const double threshold =
      options_.frequency_fraction * static_cast<double>(n);
  // Rare-bin membership folds into one byte per bin, so the flagging pass
  // is a table lookup instead of recomputing the float compare per point.
  thread_local std::vector<unsigned char> rare;
  rare.resize(bins);
  for (size_t b = 0; b < bins; ++b) {
    rare[b] = static_cast<double>(counts[b]) < threshold ? 1 : 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (rare[bin_of(values[i])] != 0) flagged->push_back(i);
  }
}

}  // namespace pcor
