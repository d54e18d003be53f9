#include "src/outlier/lof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/data/salary_generator.h"

namespace pcor {
namespace {

// Naive O(n^2) LOF reference with the same deterministic k-NN convention
// (exactly k neighbors, distance ties toward smaller values).
std::vector<double> NaiveLofScores(const std::vector<double>& values,
                                   size_t k) {
  const size_t n = values.size();
  std::vector<double> scores(n, 1.0);
  if (n <= k + 1) return scores;

  // Neighbor lists by (distance, value, index) lexicographic order.
  std::vector<std::vector<size_t>> knn(n);
  std::vector<double> kdist(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t> others;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(j);
    }
    std::sort(others.begin(), others.end(), [&](size_t a, size_t b) {
      double da = std::abs(values[a] - values[i]);
      double db = std::abs(values[b] - values[i]);
      if (da != db) return da < db;
      if (values[a] != values[b]) return values[a] < values[b];
      return a < b;
    });
    others.resize(k);
    kdist[i] = std::abs(values[others.back()] - values[i]);
    for (size_t j : others) {
      kdist[i] = std::max(kdist[i], std::abs(values[j] - values[i]));
    }
    knn[i] = std::move(others);
  }
  std::vector<double> lrd(n);
  for (size_t i = 0; i < n; ++i) {
    double reach = 0;
    for (size_t j : knn[i]) {
      reach += std::max(kdist[j], std::abs(values[i] - values[j]));
    }
    lrd[i] = reach > 0 ? static_cast<double>(k) / reach
                       : std::numeric_limits<double>::infinity();
  }
  for (size_t i = 0; i < n; ++i) {
    double acc = 0;
    for (size_t j : knn[i]) {
      if (std::isinf(lrd[i])) {
        acc += std::isinf(lrd[j]) ? 1.0 : 0.0;
      } else {
        acc += lrd[j] / lrd[i];
      }
    }
    scores[i] = acc / static_cast<double>(k);
  }
  return scores;
}

// The comparison-sort kernel LofDetector::Scores used before its linear-time
// rewrite, kept verbatim as the bit-identity oracle: positions sorted by
// (value, index), then a k-step expansion toward the nearer side per point.
std::vector<double> SeedLofScores(std::span<const double> values, size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto lrd_ratio = [](double numer, double denom) {
    if (std::isinf(denom)) return std::isinf(numer) ? 1.0 : 0.0;
    return numer / denom;
  };
  const size_t n = values.size();
  std::vector<double> scores(n, 1.0);
  if (n <= k + 1) return scores;

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = values[order[i]];

  std::vector<size_t> win_lo(n), win_hi(n);
  std::vector<double> kdist(n);
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i, hi = i;
    for (size_t step = 0; step < k; ++step) {
      const bool can_left = lo > 0;
      const bool can_right = hi + 1 < n;
      if (can_left &&
          (!can_right || x[i] - x[lo - 1] <= x[hi + 1] - x[i])) {
        --lo;
      } else {
        ++hi;
      }
    }
    win_lo[i] = lo;
    win_hi[i] = hi;
    kdist[i] = std::max(x[i] - x[lo], x[hi] - x[i]);
  }

  std::vector<double> lrd(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t len = win_hi[i] - win_lo[i] + 1;
    const double reach_sum =
        simd::ReachSum(std::span<const double>(x).subspan(win_lo[i], len),
                       std::span<const double>(kdist).subspan(win_lo[i], len),
                       x[i]) -
        kdist[i];
    lrd[i] = reach_sum > 0.0 ? static_cast<double>(k) / reach_sum : kInf;
  }

  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t j = win_lo[i]; j <= win_hi[i]; ++j) {
      if (j == i) continue;
      acc += lrd_ratio(lrd[j], lrd[i]);
    }
    scores[order[i]] = acc / static_cast<double>(k);
  }
  return scores;
}

// Bit-for-bit equality, except that any NaN matches any NaN.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Scores and flagged sets of `detector` must equal the seed kernel's on the
// scalar kernel tier, on every tier the host supports.
void ExpectMatchesSeedKernel(const LofDetector& detector,
                             std::span<const double> values,
                             const std::string& label) {
  const simd::Backend active = simd::ActiveBackend();
  simd::SetBackendForTest(simd::Backend::kScalar);
  const std::vector<double> expected =
      SeedLofScores(values, detector.options().k);
  std::vector<size_t> expected_flagged;
  simd::ScanAbove(expected, detector.options().score_threshold,
                  &expected_flagged);
  for (simd::Backend tier : simd::SupportedBackends()) {
    simd::SetBackendForTest(tier);
    const std::string where = label + " tier=" + simd::BackendName(tier);
    const std::vector<double> actual = detector.Scores(values);
    ASSERT_EQ(actual.size(), expected.size()) << where;
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_TRUE(SameBits(actual[i], expected[i]))
          << where << " i=" << i << " got " << actual[i] << " want "
          << expected[i];
    }
    ASSERT_EQ(detector.Detect(values), expected_flagged) << where;
  }
  simd::SetBackendForTest(active);
}

// Duplicate-heavy fuzz values: a small palette with signed zeros,
// infinities, values whose differences overflow, and negatives, so most
// k-NN windows meet distance ties.
double FuzzValue(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kPalette[] = {0.0,  -0.0, kInf, -kInf, 1e308,
                                        -1e308, -7.0, -1.0, 1.0,  2.0,
                                        2.5,  3.0,  1e-300};
  if (rng.NextBernoulli(0.75)) {
    return kPalette[rng.NextBounded(std::size(kPalette))];
  }
  return std::round(rng.NextGaussian() * 8.0) / 2.0;
}

LofOptions SmallOptions() {
  LofOptions options;
  options.k = 3;
  options.score_threshold = 1.5;
  options.min_population = 8;
  return options;
}

TEST(LofTest, FlagsIsolatedPoint) {
  LofDetector detector(SmallOptions());
  std::vector<double> values{1.0, 1.1, 1.2, 0.9, 1.05, 0.95, 1.15, 9.0};
  auto flagged = detector.Detect(values);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 7u);
}

TEST(LofTest, UniformDataHasScoresNearOne) {
  LofDetector detector(SmallOptions());
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(static_cast<double>(i));
  auto scores = detector.Scores(values);
  for (size_t i = 2; i + 2 < scores.size(); ++i) {
    EXPECT_NEAR(scores[i], 1.0, 0.35) << i;
  }
  EXPECT_TRUE(detector.Detect(values).empty());
}

TEST(LofTest, MatchesNaiveReferenceOnDistinctValues) {
  // Distinct values (no k-NN ties): the windowed and naive versions must
  // agree exactly.
  Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 120; ++i) {
    values.push_back(rng.NextGaussian() * 10.0);
  }
  for (size_t k : {3ul, 5ul, 10ul}) {
    LofOptions options = SmallOptions();
    options.k = k;
    LofDetector detector(options);
    auto fast = detector.Scores(values);
    auto naive = NaiveLofScores(values, k);
    ASSERT_EQ(fast.size(), naive.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-9) << "k=" << k << " i=" << i;
    }
  }
}

TEST(LofTest, MatchesSeedKernelBitForBit) {
  Rng rng(4051);
  for (size_t k : {1ul, 3ul, 10ul}) {
    LofOptions options = SmallOptions();
    options.k = k;
    options.min_population = 1;
    const LofDetector detector(options);
    for (size_t n = k + 2; n <= 64; ++n) {
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<double> values(n);
        for (double& v : values) v = FuzzValue(rng);
        // Half the arrays also get a run of one value longer than 2k, so
        // whole windows fall inside a tie.
        if (trial % 2 == 1 && n > 2 * k + 1) {
          const size_t len = 2 * k + 1 + rng.NextBounded(n - 2 * k);
          const size_t begin = rng.NextBounded(n - len + 1);
          std::fill_n(values.begin() + begin, len, FuzzValue(rng));
        }
        ExpectMatchesSeedKernel(
            detector, values,
            "k=" + std::to_string(k) + " n=" + std::to_string(n) +
                " trial=" + std::to_string(trial));
      }
    }
  }
  // The paper's reduced salary workload, whole metric column.
  const Dataset salary =
      std::move(GenerateSalaryDataset(ReducedSalarySpec()).value().dataset);
  ASSERT_EQ(salary.num_rows(), 11000u);
  ExpectMatchesSeedKernel(LofDetector(), salary.metric_column(), "salary");
}

TEST(LofTest, DuplicateHeavyDataDoesNotBlowUp) {
  LofDetector detector(SmallOptions());
  std::vector<double> values(30, 4.0);
  values.push_back(9.0);
  auto scores = detector.Scores(values);
  // Duplicates are an infinitely dense cluster: their lrd is +inf, their
  // LOF resolves to 1 (inliers). The isolated point's score may itself be
  // +inf — infinitely less dense than its neighbors — which is exactly the
  // outlier signal.
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(std::isfinite(scores[i])) << i;
    EXPECT_NEAR(scores[i], 1.0, 1e-9) << i;
  }
  EXPECT_GT(scores[30], detector.options().score_threshold);
  auto flagged = detector.Detect(values);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 30u);
}

TEST(LofTest, AffineInvariance) {
  // LOF is a ratio of densities: invariant under positive affine maps.
  LofDetector detector(SmallOptions());
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) values.push_back(rng.NextGaussian());
  values.push_back(7.5);
  auto base = detector.Scores(values);
  std::vector<double> mapped;
  for (double v : values) mapped.push_back(3.0 * v + 100.0);
  auto transformed = detector.Scores(mapped);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base[i], transformed[i], 1e-9);
  }
}

TEST(LofTest, SmallPopulationsReportNothing) {
  LofDetector detector(SmallOptions());
  std::vector<double> values{1, 2, 3, 100};
  EXPECT_TRUE(detector.Detect(values).empty());
}

TEST(LofTest, ThresholdControlsSensitivity) {
  std::vector<double> values{1.0, 1.1, 1.2, 0.9, 1.05, 0.95, 1.15, 3.0};
  LofOptions loose = SmallOptions();
  loose.score_threshold = 1.1;
  LofOptions strict = SmallOptions();
  strict.score_threshold = 100.0;
  EXPECT_FALSE(LofDetector(loose).Detect(values).empty());
  EXPECT_TRUE(LofDetector(strict).Detect(values).empty());
}

TEST(LofTest, DeterministicAcrossCalls) {
  LofDetector detector(SmallOptions());
  Rng rng(29);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextGaussian());
  EXPECT_EQ(detector.Scores(values), detector.Scores(values));
}

}  // namespace
}  // namespace pcor
