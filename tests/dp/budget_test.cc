#include "src/dp/budget.h"

#include <gtest/gtest.h>

namespace pcor {
namespace {

TEST(SamplerKindTest, NamesAreStable) {
  // The table benches print these names as row labels.
  EXPECT_EQ(SamplerKindName(SamplerKind::kDirect), "direct");
  EXPECT_EQ(SamplerKindName(SamplerKind::kUniform), "uniform");
  EXPECT_EQ(SamplerKindName(SamplerKind::kRandomWalk), "random_walk");
  EXPECT_EQ(SamplerKindName(SamplerKind::kDfs), "dfs");
  EXPECT_EQ(SamplerKindName(SamplerKind::kBfs), "bfs");
}

TEST(BudgetTest, SingleDrawAlgorithmsSpendTwoEpsilonOne) {
  // Theorems 4.1/5.1/5.3: eps = 2 * eps1.
  for (SamplerKind kind : {SamplerKind::kDirect, SamplerKind::kUniform,
                           SamplerKind::kRandomWalk}) {
    EXPECT_DOUBLE_EQ(Epsilon1ForTotal(kind, 0.2, 50), 0.1);
    EXPECT_DOUBLE_EQ(TotalForEpsilon1(kind, 0.1, 50), 0.2);
  }
}

TEST(BudgetTest, GraphSearchSpendsTwoNPlusTwoEpsilonOne) {
  // Theorems 5.5/5.7: eps = (2n+2) * eps1. The paper's Section 6.3 notes
  // eps = 0.2 with n = 50 gives eps1 ~ 0.002.
  for (SamplerKind kind : {SamplerKind::kDfs, SamplerKind::kBfs}) {
    EXPECT_NEAR(Epsilon1ForTotal(kind, 0.2, 50), 0.2 / 102.0, 1e-12);
    EXPECT_NEAR(Epsilon1ForTotal(kind, 0.2, 50), 0.00196, 1e-4);
    EXPECT_DOUBLE_EQ(TotalForEpsilon1(kind, 0.002, 50), 0.204);
  }
}

TEST(BudgetTest, ConversionsAreInverse) {
  for (SamplerKind kind :
       {SamplerKind::kDirect, SamplerKind::kUniform, SamplerKind::kRandomWalk,
        SamplerKind::kDfs, SamplerKind::kBfs}) {
    for (size_t n : {25ul, 50ul, 100ul, 200ul}) {
      const double eps1 = Epsilon1ForTotal(kind, 0.4, n);
      EXPECT_NEAR(TotalForEpsilon1(kind, eps1, n), 0.4, 1e-12);
    }
  }
}

TEST(BudgetTest, MoreSamplesMeansSmallerEpsilonOne) {
  // The cancellation effect behind Table 11's n=200 utility drop.
  EXPECT_GT(Epsilon1ForTotal(SamplerKind::kBfs, 0.2, 25),
            Epsilon1ForTotal(SamplerKind::kBfs, 0.2, 200));
}

}  // namespace
}  // namespace pcor
