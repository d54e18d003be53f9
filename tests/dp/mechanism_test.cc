#include "src/dp/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace pcor {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ExponentialMechanismTest, ProbabilitiesAreSoftmaxOfScaledScores) {
  ExponentialMechanism mech(/*epsilon1=*/2.0, /*sensitivity=*/1.0);
  std::vector<double> scores{0.0, 1.0};
  auto p = mech.Probabilities(scores);
  // Pr[1]/Pr[0] = exp(eps1 * (u1 - u0) / (2*sens)) = exp(1).
  EXPECT_NEAR(p[1] / p[0], std::exp(1.0), 1e-9);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(ExponentialMechanismTest, SensitivityScalesTheExponent) {
  ExponentialMechanism mech(/*epsilon1=*/2.0, /*sensitivity=*/2.0);
  auto p = mech.Probabilities({0.0, 2.0});
  EXPECT_NEAR(p[1] / p[0], std::exp(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(mech.EpsilonPerDraw(), 8.0);
}

TEST(ExponentialMechanismTest, NegativeInfinityGetsZeroProbability) {
  ExponentialMechanism mech(1.0, 1.0);
  auto p = mech.Probabilities({5.0, -kInf, 5.0});
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

TEST(ExponentialMechanismTest, ChooseNeverPicksInvalidCandidates) {
  ExponentialMechanism mech(0.5, 1.0);
  Rng rng(5);
  std::vector<double> scores{-kInf, 3.0, -kInf, 1.0};
  for (int i = 0; i < 500; ++i) {
    auto pick = mech.Choose(scores, &rng);
    ASSERT_TRUE(pick.ok());
    EXPECT_TRUE(*pick == 1 || *pick == 3);
  }
}

TEST(ExponentialMechanismTest, ErrorsOnDegenerateInput) {
  ExponentialMechanism mech(0.5, 1.0);
  Rng rng(7);
  EXPECT_TRUE(mech.Choose({}, &rng).status().IsNoValidContext());
  EXPECT_TRUE(mech.Choose({-kInf, -kInf}, &rng).status().IsNoValidContext());
}

TEST(ExponentialMechanismTest, GumbelSamplingMatchesTheory) {
  const double eps1 = 1.0;
  ExponentialMechanism mech(eps1, 1.0);
  std::vector<double> scores{0.0, 1.0, 2.0, -kInf};
  auto expected = mech.Probabilities(scores);
  Rng rng(42);
  const size_t n = 200000;
  std::vector<size_t> counts(scores.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    auto pick = mech.Choose(scores, &rng);
    ASSERT_TRUE(pick.ok());
    ++counts[*pick];
  }
  EXPECT_EQ(counts[3], 0u);
  for (size_t i = 0; i < 3; ++i) {
    const double freq = static_cast<double>(counts[i]) / n;
    const double se = std::sqrt(expected[i] * (1 - expected[i]) / n);
    EXPECT_NEAR(freq, expected[i], 6.0 * se + 1e-4)
        << "index " << i;
  }
}

TEST(ExponentialMechanismTest, EqualScoresAreUniform) {
  ExponentialMechanism mech(1.0, 1.0);
  auto p = mech.Probabilities({7.0, 7.0, 7.0, 7.0});
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(ExponentialMechanismTest, LargeScoresDoNotOverflow) {
  ExponentialMechanism mech(1.0, 1.0);
  auto p = mech.Probabilities({1e6, 1e6 + 1.0});
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_TRUE(std::isfinite(p[1]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_GT(p[1], p[0]);
}

TEST(ExponentialMechanismTest, HigherEpsilonConcentratesOnTheMax) {
  std::vector<double> scores{0.0, 1.0};
  ExponentialMechanism weak(0.1, 1.0);
  ExponentialMechanism strong(5.0, 1.0);
  EXPECT_LT(weak.Probabilities(scores)[1], strong.Probabilities(scores)[1]);
}

TEST(ExponentialMechanismTest, PrivacyRatioBoundHoldsOnNeighborScores) {
  // Scores move by at most sensitivity=1 between neighbors; the selection
  // probability ratio for any outcome must stay within exp(2*eps1).
  const double eps1 = 0.7;
  ExponentialMechanism mech(eps1, 1.0);
  std::vector<double> u1{4.0, 9.0, 2.0, 7.0};
  std::vector<double> u2{5.0, 8.0, 3.0, 6.0};  // each moved by exactly 1
  auto p1 = mech.Probabilities(u1);
  auto p2 = mech.Probabilities(u2);
  for (size_t i = 0; i < u1.size(); ++i) {
    const double ratio = std::max(p1[i] / p2[i], p2[i] / p1[i]);
    EXPECT_LE(ratio, std::exp(2.0 * eps1) * (1 + 1e-9));
  }
}

}  // namespace
}  // namespace pcor
