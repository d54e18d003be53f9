#pragma once

#include "src/outlier/detector.h"

namespace pcor {

/// \brief Options for the Local Outlier Factor detector.
struct LofOptions {
  /// Neighborhood size (the classic "MinPts" parameter).
  size_t k = 10;
  /// Points with LOF score above this are flagged. The paper does not state
  /// its threshold; 1.5 is the standard "clearly more sparse than the
  /// neighborhood" choice and is recorded in EXPERIMENTS.md.
  double score_threshold = 1.5;
  /// Populations below this size report no outliers.
  size_t min_population = 20;
};

/// \brief Local Outlier Factor [Breunig et al. 2000], the paper's
/// distance-based detector.
///
/// The metric attribute is one-dimensional, so exact k-nearest neighbors
/// are a window of k+1 consecutive points in sorted order. The order comes
/// from a stable LSD radix sort of 32-bit positions keyed by an
/// order-preserving 64-bit image of each value, one pass per byte of the
/// key range; the windows come from one pointer that slides right as the
/// point moves right. Both are O(n), and the scores below add O(nk): the
/// naive version is O(n^2). Scores follow the standard definitions:
/// k-distance, reachability distance, local reachability density (lrd) and
/// LOF = mean(lrd of neighbors) / lrd(point).
///
/// Determinism notes (required by the paper's Definition 3.1): the order
/// is by (value, position), with -0.0 tying +0.0; neighbor sets are exactly
/// k points chosen by expanding toward the nearer side, breaking distance
/// ties toward smaller values; duplicate-heavy neighborhoods with zero
/// reachability sum get lrd = +inf and LOF ratios involving two infinities
/// resolve to 1 (dense duplicates are inliers).
class LofDetector : public OutlierDetector {
 public:
  explicit LofDetector(LofOptions options = {});

  std::string name() const override { return "lof"; }
  using OutlierDetector::Detect;
  void Detect(std::span<const double> values,
              std::vector<size_t>* flagged) const override;
  size_t min_population() const override { return options_.min_population; }

  /// \brief LOF scores aligned with `values` (exposed for tests and the
  /// naive-reference comparison).
  std::vector<double> Scores(std::span<const double> values) const;

  const LofOptions& options() const { return options_; }

 private:
  LofOptions options_;
};

}  // namespace pcor
