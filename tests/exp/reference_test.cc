#include "src/exp/reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/threading.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

class ReferenceTest : public ::testing::Test {
 protected:
  ReferenceTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        index_(grid_.dataset),
        detector_(testing_util::MakeTestDetector()),
        verifier_(index_, detector_) {}

  testing_util::GridData grid_;
  PopulationIndex index_;
  ZscoreDetector detector_;
  OutlierVerifier verifier_;
};

TEST_F(ReferenceTest, BuildMatchesDirectEnumeration) {
  auto table = ReferenceTable::Build(verifier_, {grid_.v_row, 0});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 2u);
  auto coe = EnumerateCoe(verifier_, grid_.v_row);
  ASSERT_TRUE(coe.ok());
  const auto* entry = table->Coe(grid_.v_row);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(*entry, *coe);
  // Row 0 is an inlier: present but empty.
  const auto* inlier = table->Coe(0);
  ASSERT_NE(inlier, nullptr);
  EXPECT_TRUE(inlier->empty());
  EXPECT_EQ(table->Coe(12345), nullptr);
}

TEST_F(ReferenceTest, ParallelBuildEqualsSerialBuild) {
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < grid_.dataset.num_rows(); r += 7) {
    rows.push_back(r);
  }
  rows.push_back(grid_.v_row);
  ThreadPool pool(7);
  auto serial = ReferenceTable::Build(verifier_, rows);
  auto parallel = ReferenceTable::Build(verifier_, rows, CoeOptions{}, &pool,
                                        /*max_parallel=*/8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), parallel->size());
  for (uint32_t r : rows) {
    ASSERT_NE(serial->Coe(r), nullptr);
    ASSERT_NE(parallel->Coe(r), nullptr);
    EXPECT_EQ(*serial->Coe(r), *parallel->Coe(r)) << r;
  }
}

TEST_F(ReferenceTest, MaxUtilityIsTheCoeMaximum) {
  auto table = ReferenceTable::Build(verifier_, {grid_.v_row});
  ASSERT_TRUE(table.ok());
  PopulationSizeUtility utility(verifier_);
  const double max_u = table->MaxUtility(grid_.v_row, utility);
  const auto* coe = table->Coe(grid_.v_row);
  ASSERT_NE(coe, nullptr);
  double expected = -1;
  for (const auto& c : *coe) {
    expected = std::max(expected,
                        static_cast<double>(index_.PopulationCount(c)));
  }
  EXPECT_DOUBLE_EQ(max_u, expected);
  // Unknown row yields -inf.
  EXPECT_TRUE(std::isinf(table->MaxUtility(9999, utility)));
}

}  // namespace
}  // namespace pcor
