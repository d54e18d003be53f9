#include "src/common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace pcor {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LogSumExpTest, MatchesNaiveForModerateValues) {
  std::vector<double> x{0.5, 1.5, -2.0, 3.0};
  double naive = 0;
  for (double v : x) naive += std::exp(v);
  EXPECT_NEAR(math::LogSumExp(x), std::log(naive), 1e-12);
}

TEST(LogSumExpTest, StableForHugeValues) {
  std::vector<double> x{1000.0, 1000.0};
  EXPECT_NEAR(math::LogSumExp(x), 1000.0 + std::log(2.0), 1e-9);
  std::vector<double> y{-1000.0, -1000.0};
  EXPECT_NEAR(math::LogSumExp(y), -1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, SkipsNegativeInfinity) {
  std::vector<double> x{-kInf, 2.0, -kInf};
  EXPECT_NEAR(math::LogSumExp(x), 2.0, 1e-12);
  EXPECT_EQ(math::LogSumExp({-kInf, -kInf}), -kInf);
  EXPECT_EQ(math::LogSumExp({}), -kInf);
}

TEST(SoftmaxTest, SumsToOneAndOrdersCorrectly) {
  auto p = math::Softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(SoftmaxTest, NegativeInfinityGetsZeroMass) {
  auto p = math::Softmax({0.0, -kInf, 0.0});
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

TEST(SoftmaxTest, AllInfinityYieldsZeros) {
  auto p = math::Softmax({-kInf, -kInf});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
}

TEST(BetaTest, RegularizedIncompleteBetaKnownValues) {
  // I_x(1, 1) = x (uniform CDF).
  for (double x : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_NEAR(math::RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
  // I_x(2, 2) = x^2 (3 - 2x).
  for (double x : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(math::RegularizedIncompleteBeta(2.0, 2.0, x),
                x * x * (3 - 2 * x), 1e-10);
  }
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(math::RegularizedIncompleteBeta(3.0, 5.0, 0.3),
              1.0 - math::RegularizedIncompleteBeta(5.0, 3.0, 0.7), 1e-10);
}

TEST(BetaTest, InverseRoundTrips) {
  for (double a : {0.5, 2.0, 7.5}) {
    for (double b : {1.0, 4.0}) {
      for (double p : {0.05, 0.5, 0.95}) {
        double x = math::InverseRegularizedIncompleteBeta(a, b, p);
        EXPECT_NEAR(math::RegularizedIncompleteBeta(a, b, x), p, 1e-8);
      }
    }
  }
}

TEST(StudentTTest, CdfKnownValues) {
  // t = 0 -> 0.5 for any dof.
  EXPECT_NEAR(math::StudentTCdf(0.0, 5.0), 0.5, 1e-12);
  // nu = 1 is the Cauchy distribution: CDF(1) = 3/4.
  EXPECT_NEAR(math::StudentTCdf(1.0, 1.0), 0.75, 1e-9);
  // Symmetry.
  EXPECT_NEAR(math::StudentTCdf(-2.0, 7.0),
              1.0 - math::StudentTCdf(2.0, 7.0), 1e-12);
}

TEST(StudentTTest, QuantileMatchesPublishedTables) {
  // Two-sided 95% critical values: t_{0.975, nu}.
  EXPECT_NEAR(math::StudentTQuantile(0.975, 10.0), 2.228, 2e-3);
  EXPECT_NEAR(math::StudentTQuantile(0.975, 30.0), 2.042, 2e-3);
  EXPECT_NEAR(math::StudentTQuantile(0.95, 10.0), 1.812, 2e-3);
  EXPECT_NEAR(math::StudentTQuantile(0.5, 12.0), 0.0, 1e-9);
  EXPECT_NEAR(math::StudentTQuantile(0.025, 10.0), -2.228, 2e-3);
}

TEST(StudentTTest, QuantileCdfRoundTrip) {
  for (double nu : {3.0, 9.0, 25.0}) {
    for (double p : {0.01, 0.2, 0.5, 0.8, 0.999}) {
      EXPECT_NEAR(math::StudentTCdf(math::StudentTQuantile(p, nu), nu), p,
                  1e-7);
    }
  }
}

TEST(GrubbsCriticalTest, MatchesPublishedTwoSidedTable) {
  // Published two-sided critical values at alpha = 0.05.
  EXPECT_NEAR(math::GrubbsCriticalValue(8, 0.05), 2.126, 0.02);
  EXPECT_NEAR(math::GrubbsCriticalValue(10, 0.05), 2.290, 0.02);
  EXPECT_NEAR(math::GrubbsCriticalValue(20, 0.05), 2.708, 0.02);
  EXPECT_NEAR(math::GrubbsCriticalValue(50, 0.05), 3.128, 0.02);
}

TEST(GrubbsCriticalTest, MonotoneInSampleSizeAndAlpha) {
  double prev = 0;
  for (size_t n : {5ul, 10ul, 50ul, 200ul, 1000ul}) {
    double g = math::GrubbsCriticalValue(n, 0.05);
    EXPECT_GT(g, prev);
    prev = g;
  }
  EXPECT_GT(math::GrubbsCriticalValue(30, 0.01),
            math::GrubbsCriticalValue(30, 0.10));
}

}  // namespace
}  // namespace pcor
