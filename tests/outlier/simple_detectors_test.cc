#include <gtest/gtest.h>

#include "src/outlier/detector.h"
#include "src/outlier/grubbs.h"
#include "src/outlier/histogram_detector.h"
#include "src/outlier/iqr.h"
#include "src/outlier/lof.h"
#include "src/outlier/zscore.h"

namespace pcor {
namespace {

TEST(IqrDetectorTest, FlagsPointsOutsideTukeyFences) {
  IqrOptions options;
  options.min_population = 4;
  IqrDetector detector(options);
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8, 100};
  auto flagged = detector.Detect(values);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 8u);
}

TEST(IqrDetectorTest, SymmetricFences) {
  IqrOptions options;
  options.min_population = 4;
  IqrDetector detector(options);
  std::vector<double> values{-100, 1, 2, 3, 4, 5, 6, 7, 8, 100};
  auto flagged = detector.Detect(values);
  ASSERT_EQ(flagged.size(), 2u);
  EXPECT_EQ(flagged[0], 0u);
  EXPECT_EQ(flagged[1], 9u);
}

TEST(IqrDetectorTest, MultiplierWidensFences) {
  IqrOptions narrow;
  narrow.min_population = 4;
  narrow.multiplier = 0.5;
  IqrOptions wide;
  wide.min_population = 4;
  wide.multiplier = 10.0;
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8, 20};
  EXPECT_FALSE(IqrDetector(narrow).Detect(values).empty());
  EXPECT_TRUE(IqrDetector(wide).Detect(values).empty());
}

TEST(ZscoreDetectorTest, FlagsBeyondThreeSigma) {
  ZscoreOptions options;
  options.min_population = 4;
  ZscoreDetector detector(options);
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(10.0 + 0.1 * (i % 5));
  values.push_back(30.0);
  auto flagged = detector.Detect(values);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 50u);
}

TEST(ZscoreDetectorTest, ConstantSampleHasNoOutliers) {
  ZscoreOptions options;
  options.min_population = 4;
  ZscoreDetector detector(options);
  EXPECT_TRUE(detector.Detect(std::vector<double>(10, 3.0)).empty());
}

TEST(ZscoreDetectorTest, MinPopulationGates) {
  ZscoreOptions options;
  options.min_population = 100;
  ZscoreDetector detector(options);
  std::vector<double> values{1, 1, 1, 50};
  EXPECT_TRUE(detector.Detect(values).empty());
}

TEST(DetectorRegistryTest, MakeDetectorKnowsAllNames) {
  for (const std::string& name : RegisteredDetectorNames()) {
    auto detector = MakeDetector(name);
    ASSERT_TRUE(detector.ok()) << name;
    EXPECT_EQ((*detector)->name(), name);
  }
  EXPECT_TRUE(MakeDetector("nope").status().IsNotFound());
}

TEST(DetectorRegistryTest, PaperTrioIsRegistered) {
  auto names = RegisteredDetectorNames();
  for (const char* required : {"grubbs", "histogram", "lof"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), required) !=
                names.end())
        << required;
  }
}

TEST(DetectorInterfaceTest, DefaultIsOutlierUsesDetect) {
  ZscoreOptions options;
  options.min_population = 4;
  ZscoreDetector detector(options);
  // With n-1 identical values and one extreme point, the extreme point's
  // z-score is (n-1)/sqrt(n); n = 31 gives ~5.4, well above threshold 3.
  std::vector<double> values(30, 1.0);
  values.push_back(25.0);
  EXPECT_TRUE(detector.IsOutlier(values, 30));
  EXPECT_FALSE(detector.IsOutlier(values, 0));
}

TEST(DetectorInterfaceTest, EmptyInputFlagsNothingAtZeroMinPopulation) {
  GrubbsOptions grubbs;
  grubbs.min_population = 0;
  HistogramDetectorOptions histogram;
  histogram.min_population = 0;
  IqrOptions iqr;
  iqr.min_population = 0;
  LofOptions lof;
  lof.min_population = 0;
  ZscoreOptions zscore;
  zscore.min_population = 0;
  const GrubbsDetector grubbs_detector(grubbs);
  const HistogramDetector histogram_detector(histogram);
  const IqrDetector iqr_detector(iqr);
  const LofDetector lof_detector(lof);
  const ZscoreDetector zscore_detector(zscore);
  const std::vector<const OutlierDetector*> detectors{
      &grubbs_detector, &histogram_detector, &iqr_detector, &lof_detector,
      &zscore_detector};
  for (const OutlierDetector* detector : detectors) {
    std::vector<size_t> flagged{7};  // stale contents must be discarded
    detector->Detect(std::span<const double>(), &flagged);
    EXPECT_TRUE(flagged.empty()) << detector->name();
  }
}

}  // namespace
}  // namespace pcor
