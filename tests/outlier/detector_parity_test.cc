// Scalar/SIMD parity property tests: every registered detector must flag
// the *identical* outlier index set (exact, not approximate) on the scalar
// kernel path and on every other kernel tier the host supports, across
// input families chosen to stress the kernels — random, constant, NaN-free
// adversarial magnitudes, and tie-heavy duplicates. The kernels'
// lane-canonical reduction contract (src/common/simd.h) is what makes this
// equality achievable bit-for-bit; these tests are the enforcement. Each
// tier is pinned in-process through SetBackendForTest, so a plain ctest run
// covers them all, under whatever sanitizers the build enables.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/outlier/detector.h"

namespace pcor {
namespace {

// The backend the dispatcher resolved at startup, captured before any test
// calls SetBackendForTest.
const simd::Backend kDispatched = simd::ActiveBackend();

struct NamedInput {
  std::string name;
  std::vector<double> values;
};

std::vector<NamedInput> ParityInputs() {
  std::vector<NamedInput> inputs;

  // Random gaussians at sizes straddling the kernels' 4-lane blocking
  // (multiples of four, off-by-one sizes, and a large population).
  for (size_t n : {8ul, 31ul, 32ul, 33ul, 100ul, 1023ul, 4096ul}) {
    Rng rng(1000 + n);
    NamedInput input{"gaussian_" + std::to_string(n), {}};
    input.values.resize(n);
    for (auto& v : input.values) v = 100.0 + 15.0 * rng.NextGaussian();
    input.values[n / 2] = 500.0;  // one planted outlier
    inputs.push_back(std::move(input));
  }

  // Constant population: zero variance, every detector must stay silent
  // on both paths.
  inputs.push_back({"constant", std::vector<double>(64, 42.0)});

  // NaN-free adversarial magnitudes: alternating huge/tiny values,
  // sign flips, and denormal-scale entries — maximal cancellation stress
  // for the sum reductions.
  {
    NamedInput input{"adversarial_magnitudes", {}};
    for (int i = 0; i < 97; ++i) {
      const double sign = (i % 2 == 0) ? 1.0 : -1.0;
      switch (i % 5) {
        case 0:
          input.values.push_back(sign * 1e12);
          break;
        case 1:
          input.values.push_back(sign * 1e-12);
          break;
        case 2:
          input.values.push_back(sign * 1e300 * 1e-290);  // 1e10
          break;
        case 3:
          input.values.push_back(sign * 5e-324);  // smallest denormal
          break;
        default:
          input.values.push_back(sign * static_cast<double>(i));
      }
    }
    inputs.push_back(std::move(input));
  }

  // Tie-heavy: few distinct values, many duplicates — stresses the
  // first-wins tie-breaking of argmax and the duplicate conventions of
  // LOF's k-distance windows.
  {
    Rng rng(77);
    NamedInput input{"tie_heavy", {}};
    for (int i = 0; i < 200; ++i) {
      input.values.push_back(
          static_cast<double>(rng.NextBounded(4)) * 10.0);
    }
    input.values.push_back(1000.0);
    input.values.push_back(1000.0);  // duplicated extreme
    inputs.push_back(std::move(input));
  }

  return inputs;
}

TEST(SimdStartupTest, DispatchesBestSupportedBackend) {
  EXPECT_EQ(kDispatched, simd::BestSupportedBackend());
}

class DetectorParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { simd::SetBackendForTest(kDispatched); }
};

TEST_P(DetectorParityTest, ScalarAndDispatchedFlagIdenticalSets) {
  auto detector = MakeDetector(GetParam());
  ASSERT_TRUE(detector.ok());
  for (const NamedInput& input : ParityInputs()) {
    simd::SetBackendForTest(simd::Backend::kScalar);
    std::vector<size_t> scalar_flagged;
    (*detector)->Detect(input.values, &scalar_flagged);

    for (simd::Backend tier : simd::SupportedBackends()) {
      simd::SetBackendForTest(tier);
      std::vector<size_t> flagged;
      (*detector)->Detect(input.values, &flagged);
      EXPECT_EQ(scalar_flagged, flagged)
          << "detector=" << GetParam() << " input=" << input.name
          << " tier=" << simd::BackendName(tier);

      // The single-target probe (the verifier's f_M entry point) must agree
      // with the full detection.
      if (!flagged.empty()) {
        EXPECT_TRUE((*detector)->IsOutlier(input.values, flagged.front()))
            << "detector=" << GetParam() << " input=" << input.name
            << " tier=" << simd::BackendName(tier);
      }
    }
  }
}

TEST_P(DetectorParityTest, RepeatedDetectionIsDeterministicPerBackend) {
  auto detector = MakeDetector(GetParam());
  ASSERT_TRUE(detector.ok());
  const NamedInput input = ParityInputs().front();
  for (simd::Backend tier : simd::SupportedBackends()) {
    simd::SetBackendForTest(tier);
    std::vector<size_t> first, again;
    (*detector)->Detect(input.values, &first);
    (*detector)->Detect(input.values, &again);
    EXPECT_EQ(first, again)
        << "detector=" << GetParam() << " tier=" << simd::BackendName(tier);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, DetectorParityTest,
                         ::testing::ValuesIn(RegisteredDetectorNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pcor
