#include "src/serve/budget_accountant.h"

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pcor {
namespace {

TEST(BudgetAccountantTest, ChargesAccumulatePerClient) {
  BudgetAccountant accountant(/*per_client_cap=*/1.0);
  EXPECT_TRUE(accountant.Charge("a", 0.25).ok());
  EXPECT_TRUE(accountant.Charge("a", 0.25).ok());
  EXPECT_TRUE(accountant.Charge("b", 0.5).ok());
  EXPECT_DOUBLE_EQ(accountant.SpentBy("a"), 0.5);
  EXPECT_DOUBLE_EQ(accountant.SpentBy("b"), 0.5);
  EXPECT_DOUBLE_EQ(accountant.SpentBy("stranger"), 0.0);
  EXPECT_DOUBLE_EQ(accountant.TotalSpent(), 1.0);
  EXPECT_EQ(accountant.num_clients(), 2u);
}

TEST(BudgetAccountantTest, ExactCapBoundaryAdmitsEveryFullRelease) {
  // cap == 4 * eps: exactly 4 admits, the 5th is rejected with a typed
  // status and charges nothing — never clipped to the remainder.
  BudgetAccountant accountant(1.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(accountant.Charge("c", 0.25).ok()) << "charge " << i;
  }
  Status fifth = accountant.Charge("c", 0.25);
  EXPECT_TRUE(fifth.IsPrivacyBudgetExceeded()) << fifth.ToString();
  EXPECT_DOUBLE_EQ(accountant.SpentBy("c"), 1.0);
}

TEST(BudgetAccountantTest, ToleratesFloatingAccumulationAtTheCap) {
  // 10 x 0.1 accumulates to 0.9999999999999999 != 1.0 in binary; the
  // admission tolerance must still admit all ten and reject the eleventh.
  BudgetAccountant accountant(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(accountant.Charge("f", 0.1).ok()) << "charge " << i;
  }
  EXPECT_TRUE(accountant.Charge("f", 0.1).IsPrivacyBudgetExceeded());
}

TEST(BudgetAccountantTest, OtherClientsUnaffectedByOneClientsExhaustion) {
  BudgetAccountant accountant(0.5);
  EXPECT_TRUE(accountant.Charge("greedy", 0.5).ok());
  EXPECT_TRUE(accountant.Charge("greedy", 0.1).IsPrivacyBudgetExceeded());
  EXPECT_TRUE(accountant.Charge("frugal", 0.1).ok());
}

TEST(BudgetAccountantTest, RefundRestoresHeadroom) {
  BudgetAccountant accountant(0.5);
  EXPECT_TRUE(accountant.Charge("r", 0.5).ok());
  EXPECT_TRUE(accountant.Charge("r", 0.25).IsPrivacyBudgetExceeded());
  accountant.Refund("r", 0.25);
  EXPECT_DOUBLE_EQ(accountant.SpentBy("r"), 0.25);
  EXPECT_TRUE(accountant.Charge("r", 0.25).ok());
  // Refunding more than spent clamps at zero, and refunding a stranger is
  // a no-op rather than minting negative spend.
  accountant.Refund("r", 99.0);
  EXPECT_DOUBLE_EQ(accountant.SpentBy("r"), 0.0);
  accountant.Refund("stranger", 1.0);
  EXPECT_DOUBLE_EQ(accountant.SpentBy("stranger"), 0.0);
}

TEST(BudgetAccountantTest, NegativeChargeIsInvalid) {
  BudgetAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Charge("n", -0.1).IsInvalidArgument());
  EXPECT_DOUBLE_EQ(accountant.SpentBy("n"), 0.0);
}

TEST(BudgetAccountantTest, NonFiniteChargeIsInvalidAndLeavesTheLedger) {
  // NaN compares false against the cap, so an unchecked NaN charge would
  // be admitted and turn the spend into NaN, after which no cap binds.
  BudgetAccountant accountant(1.0);
  ASSERT_TRUE(accountant.Charge("t", 0.25).ok());
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double eps : bad) {
    EXPECT_TRUE(accountant.Charge("t", eps).IsInvalidArgument()) << eps;
    EXPECT_DOUBLE_EQ(accountant.SpentBy("t"), 0.25) << eps;
    accountant.Refund("t", eps);
    EXPECT_DOUBLE_EQ(accountant.SpentBy("t"), 0.25) << eps;
  }
  EXPECT_DOUBLE_EQ(accountant.TotalSpent(), 0.25);
  // The cap still binds afterwards.
  EXPECT_TRUE(accountant.Charge("t", 5.0).IsPrivacyBudgetExceeded());
  EXPECT_TRUE(accountant.Charge("t", 0.75).ok());
  EXPECT_TRUE(accountant.Charge("t", 0.01).IsPrivacyBudgetExceeded());
  // An unlimited ledger rejects them too, rather than reading inf.
  BudgetAccountant unlimited;
  for (const double eps : bad) {
    EXPECT_TRUE(unlimited.Charge("u", eps).IsInvalidArgument()) << eps;
  }
  EXPECT_DOUBLE_EQ(unlimited.SpentBy("u"), 0.0);
}

TEST(BudgetAccountantTest, UnlimitedByDefault) {
  BudgetAccountant accountant;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(accountant.Charge("u", 1e6).ok());
  }
}

TEST(BudgetAccountantTest, PerClientCapOverridesTheDefault) {
  BudgetAccountant accountant(/*per_client_cap=*/1.0);
  accountant.SetCap("vip", 2.0);
  accountant.SetCap("restricted", 0.25);
  EXPECT_DOUBLE_EQ(accountant.CapFor("vip"), 2.0);
  EXPECT_DOUBLE_EQ(accountant.CapFor("restricted"), 0.25);
  EXPECT_DOUBLE_EQ(accountant.CapFor("stranger"), 1.0);

  // The vip can spend past the default; the restricted client cannot even
  // reach it; strangers still get the default.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(accountant.Charge("vip", 0.25).ok()) << "vip charge " << i;
  }
  EXPECT_TRUE(accountant.Charge("vip", 0.25).IsPrivacyBudgetExceeded());
  EXPECT_TRUE(accountant.Charge("restricted", 0.25).ok());
  EXPECT_TRUE(
      accountant.Charge("restricted", 0.25).IsPrivacyBudgetExceeded());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(accountant.Charge("stranger", 0.25).ok());
  }
  EXPECT_TRUE(accountant.Charge("stranger", 0.25).IsPrivacyBudgetExceeded());
}

TEST(BudgetAccountantTest, LoweringACapBelowSpendRejectsWithoutClawback) {
  BudgetAccountant accountant(10.0);
  EXPECT_TRUE(accountant.Charge("c", 5.0).ok());
  accountant.SetCap("c", 1.0);
  EXPECT_DOUBLE_EQ(accountant.SpentBy("c"), 5.0);  // never clawed back
  EXPECT_TRUE(accountant.Charge("c", 0.1).IsPrivacyBudgetExceeded());
}

TEST(BudgetAccountantTest, SetCapUpsertsTheLatestValue) {
  BudgetAccountant accountant(1.0);
  accountant.SetCap("c", 0.5);
  accountant.SetCap("c", 3.0);
  EXPECT_DOUBLE_EQ(accountant.CapFor("c"), 3.0);
  EXPECT_TRUE(accountant.Charge("c", 2.0).ok());
}

TEST(BudgetAccountantTest, ClearCapRestoresTheDefault) {
  BudgetAccountant accountant(1.0);
  accountant.SetCap("c", 0.25);
  EXPECT_TRUE(accountant.Charge("c", 0.5).IsPrivacyBudgetExceeded());
  accountant.ClearCap("c");
  EXPECT_DOUBLE_EQ(accountant.CapFor("c"), 1.0);
  EXPECT_TRUE(accountant.Charge("c", 0.5).ok());
  accountant.ClearCap("stranger");  // no-op, never minted an override
  EXPECT_DOUBLE_EQ(accountant.CapFor("stranger"), 1.0);
}

TEST(BudgetAccountantTest, ConcurrentChargesAdmitExactlyTheCap) {
  // 8 threads race 100 charges of 0.01 each against a cap of 0.5: exactly
  // 50 must be admitted, regardless of interleaving.
  BudgetAccountant accountant(0.5);
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const Status status = accountant.Charge("hot", 0.01);
        if (status.ok()) {
          admitted.fetch_add(1);
        } else {
          EXPECT_TRUE(status.IsPrivacyBudgetExceeded());
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 50u);
  EXPECT_EQ(rejected.load(), 750u);
  EXPECT_NEAR(accountant.SpentBy("hot"), 0.5, 1e-9);
}

}  // namespace
}  // namespace pcor
