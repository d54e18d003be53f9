#include "src/common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/random.h"

namespace pcor {
namespace {

// Plain reference implementations in the canonical 4-lane order the kernel
// contract specifies (see simd.h). Exactness against these is what makes
// detector results backend-invariant.
double LaneSum(const std::vector<double>& v) {
  double lane[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < v.size(); ++i) lane[i % 4] += v[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double LaneSumSqDev(const std::vector<double>& v, double c) {
  double lane[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < v.size(); ++i) {
    lane[i % 4] += (v[i] - c) * (v[i] - c);
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// Restores the backend the dispatcher resolved at startup when a test
// scope ends, so test order cannot leak a pinned backend into other suites.
class BackendGuard {
 public:
  BackendGuard() = default;
  ~BackendGuard() { simd::SetBackendForTest(initial_); }

 private:
  simd::Backend initial_ = simd::ActiveBackend();
};

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = 50.0 + 20.0 * rng.NextGaussian();
  return v;
}

TEST(SimdDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(simd::BackendName(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kSse2), "sse2");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kAvx512), "avx512");
  EXPECT_NE(simd::ActiveBackendName(), nullptr);
}

TEST(SimdDispatchTest, SupportedBackendsRunScalarToBest) {
  const std::vector<simd::Backend> backends = simd::SupportedBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), simd::Backend::kScalar);
  EXPECT_EQ(backends.back(), simd::BestSupportedBackend());
  for (size_t i = 0; i < backends.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(backends[i]), i);
  }
}

TEST(SimdDispatchTest, SetBackendClampsToSupported) {
  BackendGuard guard;
  const simd::Backend installed =
      simd::SetBackendForTest(simd::Backend::kAvx512);
  EXPECT_LE(static_cast<int>(installed),
            static_cast<int>(simd::BestSupportedBackend()));
  EXPECT_EQ(simd::ActiveBackend(), installed);
  EXPECT_EQ(simd::SetBackendForTest(simd::Backend::kScalar),
            simd::Backend::kScalar);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
}

TEST(SimdKernelTest, SumMatchesLaneCanonicalOrderExactly) {
  BackendGuard guard;
  for (size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 63ul, 1000ul}) {
    const auto v = RandomValues(n, 11 + n);
    const double want = LaneSum(v);
    for (simd::Backend backend : simd::SupportedBackends()) {
      simd::SetBackendForTest(backend);
      EXPECT_EQ(simd::Sum(v), want)
          << "n=" << n << " backend=" << simd::BackendName(backend);
    }
  }
}

TEST(SimdKernelTest, SumSqDevMatchesLaneCanonicalOrderExactly) {
  BackendGuard guard;
  for (size_t n : {1ul, 2ul, 5ul, 16ul, 33ul, 1000ul}) {
    const auto v = RandomValues(n, 23 + n);
    const double want = LaneSumSqDev(v, 50.0);
    for (simd::Backend backend : simd::SupportedBackends()) {
      simd::SetBackendForTest(backend);
      EXPECT_EQ(simd::SumSqDev(v, 50.0), want)
          << "n=" << n << " backend=" << simd::BackendName(backend);
    }
  }
}

TEST(SimdKernelTest, MeanAndVarianceMatchesDefinition) {
  BackendGuard guard;
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::SetBackendForTest(backend);
    const simd::MeanVar mv = simd::MeanAndVariance(v);
    EXPECT_DOUBLE_EQ(mv.mean, 3.0);
    EXPECT_DOUBLE_EQ(mv.variance, 2.5);
  }
  EXPECT_EQ(simd::MeanAndVariance({}).variance, 0.0);
  EXPECT_EQ(simd::MeanAndVariance(std::vector<double>{7.0}).mean, 7.0);
}

TEST(SimdKernelTest, MinMaxAgreesAcrossBackends) {
  BackendGuard guard;
  for (size_t n : {1ul, 2ul, 3ul, 9ul, 100ul, 1001ul}) {
    const auto v = RandomValues(n, 37 + n);
    const double want_min = *std::min_element(v.begin(), v.end());
    const double want_max = *std::max_element(v.begin(), v.end());
    for (simd::Backend backend : simd::SupportedBackends()) {
      simd::SetBackendForTest(backend);
      const simd::MinMax mm = simd::MinMaxOf(v);
      EXPECT_EQ(mm.min, want_min) << simd::BackendName(backend);
      EXPECT_EQ(mm.max, want_max) << simd::BackendName(backend);
    }
  }
}

TEST(SimdKernelTest, ArgMaxAbsDeviationIsFirstWins) {
  BackendGuard guard;
  // Duplicated extremes: the earliest must win on every backend.
  const std::vector<double> v{5.0, -3.0, 9.0, 1.0, 9.0, -3.0, 9.0};
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::SetBackendForTest(backend);
    const simd::ArgAbsDev got = simd::ArgMaxAbsDeviation(v, 0.0);
    EXPECT_EQ(got.index, 2u) << simd::BackendName(backend);
    EXPECT_EQ(got.abs_dev, 9.0) << simd::BackendName(backend);
  }
  // Negative deviation larger in magnitude than any positive one.
  const std::vector<double> w{1.0, -20.0, 3.0, 19.0};
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::SetBackendForTest(backend);
    EXPECT_EQ(simd::ArgMaxAbsDeviation(w, 0.0).index, 1u);
  }
  // Equal |deviations| spread over the vector lanes, in the same lane
  // (3, 11, 19) and across lanes, with both signs: the cross-lane
  // reduction must still pick the earliest index.
  std::vector<double> u(64, 0.0);
  for (size_t i : {3ul, 10ul, 11ul, 17ul, 19ul}) u[i] = i % 2 ? 9.0 : -9.0;
  for (simd::Backend backend : simd::SupportedBackends()) {
    simd::SetBackendForTest(backend);
    const simd::ArgAbsDev got = simd::ArgMaxAbsDeviation(u, 0.0);
    EXPECT_EQ(got.index, 3u) << simd::BackendName(backend);
    EXPECT_EQ(got.abs_dev, 9.0) << simd::BackendName(backend);
  }
}

TEST(SimdKernelTest, ScansEmitAscendingIdenticalIndices) {
  BackendGuard guard;
  for (size_t n : {1ul, 5ul, 64ul, 515ul}) {
    const auto v = RandomValues(n, 53 + n);
    std::vector<size_t> want_z, want_range, want_above;
    for (size_t i = 0; i < v.size(); ++i) {
      if (std::abs(v[i] - 50.0) / 20.0 > 1.0) want_z.push_back(i);
      if (v[i] < 40.0 || v[i] > 60.0) want_range.push_back(i);
      if (v[i] > 55.0) want_above.push_back(i);
    }
    for (simd::Backend backend : simd::SupportedBackends()) {
      simd::SetBackendForTest(backend);
      std::vector<size_t> got;
      simd::ScanAbsZAbove(v, 50.0, 20.0, 1.0, &got);
      EXPECT_EQ(got, want_z) << simd::BackendName(backend);
      got.clear();
      simd::ScanOutsideRange(v, 40.0, 60.0, &got);
      EXPECT_EQ(got, want_range) << simd::BackendName(backend);
      got.clear();
      simd::ScanAbove(v, 55.0, &got);
      EXPECT_EQ(got, want_above) << simd::BackendName(backend);
    }
  }
}

TEST(SimdKernelTest, ReachSumMatchesLaneCanonicalOrderExactly) {
  BackendGuard guard;
  // Every window length up to 64 (LOF's window is k + 1): few addends per
  // lane round the same under many orders, so one length proves little.
  for (size_t n = 1; n <= 64; ++n) {
    const auto x = RandomValues(n, 71 + n);
    auto kdist = RandomValues(n, 73 + n);
    for (auto& d : kdist) d = std::abs(d);
    const double xi = x[n / 2];
    double lane[4] = {0, 0, 0, 0};
    for (size_t j = 0; j < n; ++j) {
      lane[j % 4] += std::max(kdist[j], std::abs(xi - x[j]));
    }
    const double want = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (simd::Backend backend : simd::SupportedBackends()) {
      simd::SetBackendForTest(backend);
      EXPECT_EQ(simd::ReachSum(x, kdist, xi), want)
          << "n=" << n << " backend=" << simd::BackendName(backend);
    }
  }
}

}  // namespace
}  // namespace pcor
