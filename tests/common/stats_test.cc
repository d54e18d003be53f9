#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/random.h"

namespace pcor {
namespace {

TEST(RunningStatsTest, MatchesDirectComputation) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), 5.0, 1e-12);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingleton) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.Add(3.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  RunningStats all, left, right;
  for (size_t i = 0; i < xs.size(); ++i) {
    all.Add(xs[i]);
    (i < 4 ? left : right).Add(xs[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(ConfidenceIntervalTest, KnownTValue) {
  // n = 4, stddev = 1, mean = 0: the 95% t-CI half width is
  // t_{0.975,3} / sqrt(4) = 3.1824 / 2.
  std::vector<double> xs{-1.0, -1.0, 1.0, 1.0};
  // stddev = sqrt(4/3)
  auto ci = MeanConfidenceInterval(xs, 0.95);
  const double sd = std::sqrt(4.0 / 3.0);
  const double half = 3.182446 * sd / 2.0;
  EXPECT_NEAR(ci.mean, 0.0, 1e-12);
  EXPECT_NEAR(ci.upper - ci.mean, half, 1e-4);
  EXPECT_NEAR(ci.mean - ci.lower, half, 1e-4);
}

TEST(ConfidenceIntervalTest, DegenerateInputs) {
  auto empty = MeanConfidenceInterval({}, 0.9);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  auto single = MeanConfidenceInterval({5.0}, 0.9);
  EXPECT_DOUBLE_EQ(single.lower, 5.0);
  EXPECT_DOUBLE_EQ(single.upper, 5.0);
}

TEST(ConfidenceIntervalTest, NarrowsWithMoreSamples) {
  std::vector<double> small, large;
  for (int i = 0; i < 10; ++i) small.push_back(i % 2);
  for (int i = 0; i < 1000; ++i) large.push_back(i % 2);
  auto ci_small = MeanConfidenceInterval(small, 0.9);
  auto ci_large = MeanConfidenceInterval(large, 0.9);
  EXPECT_LT(ci_large.upper - ci_large.lower,
            ci_small.upper - ci_small.lower);
}

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0 / 3.0), 20.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.9), 7.0);
}

TEST(HistogramBuilderTest, CountsAndClamping) {
  HistogramBuilder h(0.0, 10.0, 5);
  h.AddAll({0.5, 1.5, 2.5, 9.9, -3.0, 42.0});
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.counts()[0], 3u);  // 0.5, 1.5 and clamped -3.0
  EXPECT_EQ(h.counts()[1], 1u);  // 2.5
  EXPECT_EQ(h.counts()[4], 2u);  // 9.9 and clamped 42.0
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(HistogramBuilderTest, AsciiRenderingHasOneLinePerBin) {
  HistogramBuilder h(0.0, 1.0, 4);
  h.AddAll({0.1, 0.2, 0.9});
  std::string ascii = h.ToAscii();
  EXPECT_EQ(std::count(ascii.begin(), ascii.end(), '\n'), 4);
  EXPECT_NE(ascii.find('#'), std::string::npos);
}

TEST(PercentileOfSortedTest, EdgeCases) {
  const std::vector<double> sorted{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.0), 10.0);  // q = 0: min
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 1.0), 50.0);  // q = 1: max
  // Interpolation midpoints: pos = q * (n-1) lands exactly between ranks.
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.125), 15.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.375), 25.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.625), 35.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.875), 45.0);
  // Single sample: every quantile is that sample.
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(one, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(one, 1.0), 7.0);
}

// ---- LatencyHistogram: the bounded-memory open-loop latency recorder ---

// The documented contract: PercentileUs(q) brackets the ceil(q*n)-th order
// statistic from above within the relative error bound (+1 for the
// integer bucket edge).
void ExpectPercentilesWithinBound(const LatencyHistogram& hist,
                                  std::vector<int64_t> samples) {
  std::sort(samples.begin(), samples.end());
  const double bound = hist.RelativeErrorBound();
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                   0.999, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    const int64_t exact = samples[std::min(rank, samples.size()) - 1];
    const int64_t approx = hist.PercentileUs(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(approx),
              static_cast<double>(exact) * (1.0 + bound) + 1.0)
        << "q=" << q;
  }
  EXPECT_EQ(hist.PercentileUs(1.0), samples.back());  // max is exact
  EXPECT_EQ(hist.min_us(), samples.front());
  EXPECT_EQ(hist.max_us(), samples.back());
}

TEST(LatencyHistogramTest, EmptyIsAllZeros) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.PercentileUs(0.5), 0);
  EXPECT_EQ(hist.min_us(), 0);
  EXPECT_EQ(hist.max_us(), 0);
  EXPECT_DOUBLE_EQ(hist.mean_us(), 0.0);
}

TEST(LatencyHistogramTest, UnitRegionIsExact) {
  // Values below 2^kPrecisionBits land in unit-width buckets: every
  // percentile is the exact order statistic, not just within the bound.
  LatencyHistogram hist;
  std::vector<int64_t> samples;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    samples.push_back(static_cast<int64_t>(rng.NextBounded(64)));
  }
  for (int64_t s : samples) hist.Record(s);
  std::sort(samples.begin(), samples.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    EXPECT_EQ(hist.PercentileUs(q), samples[rank - 1]) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, RandomSamplesWithinErrorBound) {
  LatencyHistogram hist;
  std::vector<int64_t> samples;
  Rng rng(2021);
  for (int i = 0; i < 5'000; ++i) {
    // Span many octaves: uniform in the exponent, the adversarial shape
    // for log-linear buckets. 2^25 max stays inside the default 60 s
    // range, so nothing saturates.
    const int64_t v = static_cast<int64_t>(
        rng.NextBounded(uint64_t{1} << rng.NextBounded(26)));
    samples.push_back(v);
    hist.Record(v);
  }
  ExpectPercentilesWithinBound(hist, samples);
  // Mean and count are exact.
  double sum = 0;
  for (int64_t s : samples) sum += static_cast<double>(s);
  EXPECT_EQ(hist.count(), samples.size());
  EXPECT_DOUBLE_EQ(hist.mean_us(), sum / static_cast<double>(samples.size()));
  EXPECT_EQ(hist.saturated(), 0u);
}

TEST(LatencyHistogramTest, SingleBucketPileup) {
  // Adversarial: every sample in ONE sub-bucket high up the range. The
  // whole distribution collapses into a single counter; all percentiles
  // must still bracket the true value within the bound.
  LatencyHistogram hist;
  std::vector<int64_t> samples(1'000, 48'000'123);
  samples.push_back(48'000'124);  // and a tie-breaking neighbor
  for (int64_t s : samples) hist.Record(s);
  ExpectPercentilesWithinBound(hist, samples);
}

TEST(LatencyHistogramTest, ClampsNegativeAndSaturatesAboveRange) {
  constexpr int64_t kMax = LatencyHistogram::kMaxValueUs;  // 60 s
  LatencyHistogram hist;
  hist.Record(-50);       // clamps to 0, not saturated
  hist.Record(kMax);      // the top of the range is not saturated
  hist.Record(kMax + 1);  // clamps to kMaxValueUs, saturated
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.saturated(), 1u);
  EXPECT_EQ(hist.min_us(), 0);
  EXPECT_EQ(hist.max_us(), kMax);
  EXPECT_EQ(hist.PercentileUs(1.0), kMax);
  EXPECT_EQ(hist.PercentileUs(0.5), kMax);
  // 6 precision bits: overshoot at most 2^-5.
  EXPECT_DOUBLE_EQ(LatencyHistogram::RelativeErrorBound(), 1.0 / 32);
}

TEST(LatencyHistogramTest, MergeIsAssociativeAcrossAnyTree) {
  // Cross-thread merging contract: per-thread histograms merged in ANY
  // tree shape yield bit-identical counts and percentiles. Simulate four
  // shards and compare left-fold, right-fold and pairwise trees.
  Rng rng(13);
  std::vector<std::vector<int64_t>> shards(4);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (int i = 0; i < 700; ++i) {
      shards[s].push_back(static_cast<int64_t>(
          rng.NextBounded(uint64_t{1} << rng.NextBounded(26))));
    }
  }
  auto record = [](const std::vector<int64_t>& values) {
    LatencyHistogram h;
    for (int64_t v : values) h.Record(v);
    return h;
  };
  LatencyHistogram left = record(shards[0]);
  left.Merge(record(shards[1]));
  left.Merge(record(shards[2]));
  left.Merge(record(shards[3]));
  LatencyHistogram right = record(shards[3]);
  right.Merge(record(shards[2]));
  right.Merge(record(shards[1]));
  right.Merge(record(shards[0]));
  LatencyHistogram pair_a = record(shards[0]);
  pair_a.Merge(record(shards[1]));
  LatencyHistogram pair_b = record(shards[2]);
  pair_b.Merge(record(shards[3]));
  pair_a.Merge(pair_b);

  std::vector<int64_t> all;
  for (const auto& shard : shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  for (const LatencyHistogram* h : {&left, &right, &pair_a}) {
    EXPECT_EQ(h->count(), all.size());
    EXPECT_EQ(h->min_us(), left.min_us());
    EXPECT_EQ(h->max_us(), left.max_us());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h->PercentileUs(q), left.PercentileUs(q)) << "q=" << q;
    }
  }
  ExpectPercentilesWithinBound(left, all);
}

TEST(LatencyHistogramTest, MergeWithEmptyKeepsExactExtremes) {
  LatencyHistogram a, b;
  a.Record(42);
  a.Merge(b);  // merging in an empty histogram changes nothing
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min_us(), 42);
  EXPECT_EQ(a.max_us(), 42);
  b.Merge(a);  // and an empty one adopts the other's extremes
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.min_us(), 42);
  EXPECT_EQ(b.max_us(), 42);
}

TEST(RuntimeSummaryTest, MinMaxAvg) {
  auto s = SummarizeRuntimes({2.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_seconds, 2.0);
  EXPECT_EQ(s.trials, 3u);
  auto empty = SummarizeRuntimes({});
  EXPECT_EQ(empty.trials, 0u);
}

}  // namespace
}  // namespace pcor
