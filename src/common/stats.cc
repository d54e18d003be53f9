#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace pcor {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

ConfidenceInterval MeanConfidenceInterval(const std::vector<double>& samples,
                                          double level) {
  PCOR_CHECK(level > 0 && level < 1) << "CI level must be in (0,1)";
  ConfidenceInterval ci;
  ci.level = level;
  if (samples.empty()) return ci;
  RunningStats rs;
  for (double s : samples) rs.Add(s);
  ci.mean = rs.mean();
  if (samples.size() < 2) {
    ci.lower = ci.upper = ci.mean;
    return ci;
  }
  const double n = static_cast<double>(samples.size());
  const double se = rs.stddev() / std::sqrt(n);
  const double t =
      math::StudentTQuantile(0.5 + level / 2.0, n - 1.0);
  ci.lower = ci.mean - t * se;
  ci.upper = ci.mean + t * se;
  return ci;
}

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, q);
}

double PercentileOfSorted(std::span<const double> sorted, double q) {
  PCOR_CHECK(!sorted.empty()) << "Percentile of empty sample";
  PCOR_CHECK(q >= 0.0 && q <= 1.0) << "Percentile q must be in [0,1]";
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

HistogramBuilder::HistogramBuilder(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  PCOR_CHECK(bins > 0) << "Histogram needs at least one bin";
  PCOR_CHECK(hi > lo) << "Histogram range must be non-empty";
}

void HistogramBuilder::Add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  double idx = (x - lo_) / width;
  long bin = static_cast<long>(std::floor(idx));
  bin = std::max(0L, std::min(bin, static_cast<long>(counts_.size()) - 1));
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

void HistogramBuilder::AddAll(const std::vector<double>& xs) {
  for (double x : xs) Add(x);
}

double HistogramBuilder::bin_lo(size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double HistogramBuilder::bin_hi(size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

std::string HistogramBuilder::ToAscii(size_t max_width) const {
  size_t peak = 0;
  for (size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "[%8.3f, %8.3f) %6zu ", bin_lo(i),
                  bin_hi(i), counts_[i]);
    out << label;
    size_t bar =
        peak == 0 ? 0 : counts_[i] * max_width / std::max<size_t>(peak, 1);
    for (size_t b = 0; b < bar; ++b) out << '#';
    out << '\n';
  }
  return out.str();
}

namespace {

/// bit_width for positive values: index of the highest set bit plus one.
inline size_t BitWidth(uint64_t v) {
  size_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(BucketIndex(kMaxValueUs) + 1, 0) {}

size_t LatencyHistogram::BucketIndex(int64_t value_us) {
  if (value_us < 0) value_us = 0;
  if (value_us > kMaxValueUs) value_us = kMaxValueUs;
  const uint64_t v = static_cast<uint64_t>(value_us);
  const size_t bits = kPrecisionBits;
  const uint64_t sub_count = uint64_t{1} << bits;  // S
  if (v < sub_count) return static_cast<size_t>(v);
  // v lives in octave [2^m, 2^(m+1)) with m >= bits; the octave splits
  // into S/2 sub-buckets of width 2^(m-bits+1).
  const size_t m = BitWidth(v) - 1;
  const size_t octave = m - bits + 1;  // 1-based past the unit region
  const uint64_t half = sub_count / 2;
  const uint64_t sub = (v >> (m - bits + 1)) - half;
  return static_cast<size_t>(sub_count + (octave - 1) * half + sub);
}

int64_t LatencyHistogram::BucketUpperEdge(size_t index) {
  const size_t bits = kPrecisionBits;
  const uint64_t sub_count = uint64_t{1} << bits;
  if (index < sub_count) return static_cast<int64_t>(index);  // exact
  const uint64_t half = sub_count / 2;
  const size_t octave = (index - sub_count) / half + 1;
  const uint64_t sub = (index - sub_count) % half;
  const size_t width_shift = octave;  // 2^(m-bits+1) with m = bits+octave-1
  const uint64_t lower = (half + sub) << width_shift;
  return static_cast<int64_t>(lower + (uint64_t{1} << width_shift) - 1);
}

void LatencyHistogram::Record(int64_t value_us) {
  if (value_us < 0) value_us = 0;
  if (value_us > kMaxValueUs) {
    value_us = kMaxValueUs;
    ++saturated_;
  }
  ++counts_[BucketIndex(value_us)];
  if (count_ == 0) {
    min_ = max_ = value_us;
  } else {
    min_ = std::min(min_, value_us);
    max_ = std::max(max_, value_us);
  }
  ++count_;
  sum_ += value_us;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  saturated_ += other.saturated_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean_us() const {
  return count_ == 0
             ? 0.0
             : static_cast<double>(sum_) / static_cast<double>(count_);
}

int64_t LatencyHistogram::PercentileUs(double q) const {
  PCOR_CHECK(q >= 0.0 && q <= 1.0) << "Percentile q must be in [0,1]";
  if (count_ == 0) return 0;
  const double exact_rank = q * static_cast<double>(count_);
  size_t rank = static_cast<size_t>(std::ceil(exact_rank));
  rank = std::max<size_t>(1, std::min(rank, count_));
  size_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      // The upper edge can overshoot the largest recorded value; clamping
      // to the exact max keeps q = 1 exact and never drops below the
      // order statistic (max >= os_k for every k).
      return std::min(BucketUpperEdge(i), max_);
    }
  }
  return max_;  // unreachable: cumulative == count_ by the loop's end
}

double LatencyHistogram::RelativeErrorBound() {
  return std::ldexp(1.0, 1 - static_cast<int>(kPrecisionBits));
}

RuntimeSummary SummarizeRuntimes(const std::vector<double>& seconds) {
  RuntimeSummary s;
  if (seconds.empty()) return s;
  RunningStats rs;
  for (double v : seconds) rs.Add(v);
  s.min_seconds = rs.min();
  s.max_seconds = rs.max();
  s.avg_seconds = rs.mean();
  s.trials = rs.count();
  return s;
}

}  // namespace pcor
