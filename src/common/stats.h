#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pcor {

/// \brief Single-pass accumulator for mean/variance/min/max (Welford).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// \brief Unbiased sample variance (0 when count < 2).
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Two-sided confidence interval around a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double level = 0.0;  ///< e.g. 0.90 for the paper's 90% CIs
};

/// \brief Student-t confidence interval for the mean of `samples`.
/// Falls back to a degenerate [mean, mean] interval for n < 2.
ConfidenceInterval MeanConfidenceInterval(const std::vector<double>& samples,
                                          double level);

/// \brief Exact percentile with linear interpolation (q in [0, 1]).
double Percentile(std::vector<double> samples, double q);

/// \brief Percentile of an already ascending-sorted sample — no copy, no
/// sort. Callers that need several quantiles of one sample sort once into a
/// scratch buffer and query this repeatedly.
double PercentileOfSorted(std::span<const double> sorted, double q);

/// \brief Fixed-width histogram over [min, max] used to reproduce the
/// paper's figure panels (utility / runtime distributions).
class HistogramBuilder {
 public:
  /// \brief Buckets `samples` into `bins` equal-width bins spanning
  /// [lo, hi]; out-of-range samples clamp to the boundary bins.
  HistogramBuilder(double lo, double hi, size_t bins);

  void Add(double x);
  void AddAll(const std::vector<double>& xs);

  const std::vector<size_t>& counts() const { return counts_; }
  double bin_lo(size_t i) const;
  double bin_hi(size_t i) const;
  size_t total() const { return total_; }

  /// \brief Renders an ASCII histogram, one line per bin, for reports.
  std::string ToAscii(size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

/// \brief Fixed-footprint log-linear latency histogram (HdrHistogram-style
/// bucket layout) — the bounded-memory replacement for unbounded
/// `latencies_s` vectors on million-event traces.
///
/// Values are non-negative integer microseconds. With b = kPrecisionBits
/// and S = 2^b, values below S get exact unit-width buckets; every octave
/// [2^m, 2^(m+1)) beyond splits into S/2 equal sub-buckets of width
/// 2^(m-b+1). PercentileUs(q) returns the upper edge of the bucket holding
/// the ceil(q * count)-th smallest recorded value, so for the k-th order
/// statistic os_k:
///
///     os_k <= PercentileUs(q) <= os_k * (1 + 2^(1-b)) + 1
///
/// (the relative error bound, see RelativeErrorBound(); the +1 absorbs the
/// integer bucket edge). min/max/mean are exact. Values above
/// kMaxValueUs clamp into the top bucket and are counted in `saturated()`
/// — never dropped silently.
///
/// Not internally synchronized: record into one histogram per thread and
/// Merge() at the end. Merge is an element-wise sum, so it is associative
/// and commutative — any merge tree over the same per-thread histograms
/// yields bit-identical counts and percentiles.
class LatencyHistogram {
 public:
  /// Top of the tracked range; larger values saturate into the last
  /// bucket. 60 s covers any sane serving latency.
  static constexpr int64_t kMaxValueUs = 60'000'000;
  /// Precision: relative error bound 2^(1-bits). 6 bits = 64 exact unit
  /// buckets + 32 sub-buckets per octave = <= 3.2% error at ~750 buckets
  /// for the 60 s range.
  static constexpr size_t kPrecisionBits = 6;

  LatencyHistogram();

  /// \brief Records one value (negative clamps to 0, above-range clamps
  /// to kMaxValueUs and counts as saturated).
  void Record(int64_t value_us);

  /// \brief Element-wise sum (every histogram has the same layout).
  void Merge(const LatencyHistogram& other);

  size_t count() const { return count_; }
  size_t saturated() const { return saturated_; }
  int64_t min_us() const { return count_ ? min_ : 0; }  ///< exact
  int64_t max_us() const { return count_ ? max_ : 0; }  ///< exact
  double mean_us() const;                               ///< exact (clamped)

  /// \brief Upper bucket edge of the ceil(q * count)-th order statistic
  /// (q = 0 reads the smallest sample's bucket; q = 1 returns the exact
  /// max). 0 when empty. q must be in [0, 1].
  int64_t PercentileUs(double q) const;

  /// \brief Guaranteed bound on PercentileUs overshoot: 2^(1-bits).
  static double RelativeErrorBound();

 private:
  static size_t BucketIndex(int64_t value_us);
  static int64_t BucketUpperEdge(size_t index);

  std::vector<size_t> counts_;
  size_t count_ = 0;
  size_t saturated_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  int64_t sum_ = 0;
};

/// \brief Summary statistics of a runtime series in the paper's format
/// (Tmin / Tmax / Tavg).
struct RuntimeSummary {
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double avg_seconds = 0.0;
  size_t trials = 0;
};

RuntimeSummary SummarizeRuntimes(const std::vector<double>& seconds);

}  // namespace pcor
