#include "src/common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace pcor {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t bound = 10;
  std::vector<size_t> counts(bound, 0);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    double p = rng.NextDoublePositive();
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  const size_t n = 100000;
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(17);
  const size_t n = 200000;
  double sum = 0, sq = 0;
  for (size_t i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GumbelMeanIsEulerMascheroni) {
  Rng rng(19);
  const size_t n = 200000;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += rng.NextGumbel();
  EXPECT_NEAR(sum / n, 0.5772156649, 0.02);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(29);
  const size_t n = 100000;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(31);
  std::vector<double> w{1.0, 0.0, 3.0};
  const size_t n = 60000;
  std::vector<size_t> counts(3, 0);
  for (size_t i = 0; i < n; ++i) ++counts[rng.NextDiscrete(w)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDenseAndSparse) {
  Rng rng(37);
  for (size_t n : {10ul, 1000ul}) {
    for (size_t k : {0ul, 1ul, 5ul, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      std::set<size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (size_t s : sample) EXPECT_LT(s, n);
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Fork();
  // The child must differ from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace pcor
