// WeightedFairQueue contracts: deficit-round-robin proportions (including
// fractional weights), per-tenant FIFO order, typed per-tenant depth
// rejections, global-capacity backpressure, and Go-channel Close semantics.
#include "src/serve/scheduler.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pcor {
namespace {

using std::chrono::milliseconds;

// Pops every element, returning the tenant-id drain order. Items are
// (tenant, sequence) pairs so per-tenant FIFO order is checkable too.
using Item = std::pair<std::string, int>;

std::vector<Item> DrainAll(WeightedFairQueue<Item>* queue) {
  std::vector<Item> order;
  queue->Close();
  Item item;
  while (queue->Pop(&item) == QueueOp::kOk) order.push_back(item);
  return order;
}

TEST(ValidateTenantConfigTest, RejectsDegenerateConfigs) {
  EXPECT_TRUE(ValidateTenantConfig(TenantConfig{}).ok());
  TenantConfig weighted;
  weighted.weight = 0.25;
  weighted.max_queue_depth = 7;
  weighted.epsilon_cap = 3.0;
  EXPECT_TRUE(ValidateTenantConfig(weighted).ok());

  TenantConfig zero_weight;
  zero_weight.weight = 0.0;
  EXPECT_TRUE(ValidateTenantConfig(zero_weight).IsInvalidArgument());
  TenantConfig negative_weight;
  negative_weight.weight = -1.0;
  EXPECT_TRUE(ValidateTenantConfig(negative_weight).IsInvalidArgument());
  TenantConfig inf_weight;
  inf_weight.weight = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateTenantConfig(inf_weight).IsInvalidArgument());
  TenantConfig negative_cap;
  negative_cap.epsilon_cap = -0.1;
  EXPECT_TRUE(ValidateTenantConfig(negative_cap).IsInvalidArgument());
  TenantConfig inf_cap;  // infinity = explicit "unlimited": allowed
  inf_cap.epsilon_cap = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateTenantConfig(inf_cap).ok());
}

TEST(WeightedFairQueueTest, ServesTenantsProportionallyToWeight) {
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("heavy", 10.0, 0);
  queue.RegisterTenant("light", 1.0, 0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(queue.Push("heavy", Item{"heavy", i}), QueueOp::kOk);
  }
  for (int i = 0; i < 18; ++i) {
    ASSERT_EQ(queue.Push("light", Item{"light", i}), QueueOp::kOk);
  }

  const std::vector<Item> order = DrainAll(&queue);
  ASSERT_EQ(order.size(), 218u);
  // Every full round serves 10 heavy + 1 light while both are backlogged:
  // after any prefix of k full rounds, light has exactly k serves.
  for (size_t round = 1; round <= 18; ++round) {
    const size_t prefix = round * 11;
    size_t light_served = 0;
    for (size_t i = 0; i < prefix; ++i) {
      if (order[i].first == "light") ++light_served;
    }
    EXPECT_EQ(light_served, round) << "after " << round << " rounds";
  }
}

TEST(WeightedFairQueueTest, FractionalWeightAccumulatesAcrossRounds) {
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("full", 1.0, 0);
  queue.RegisterTenant("quarter", 0.25, 0);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(queue.Push("full", Item{"full", i}), QueueOp::kOk);
    ASSERT_EQ(queue.Push("quarter", Item{"quarter", i}), QueueOp::kOk);
  }
  const std::vector<Item> order = DrainAll(&queue);
  // While both are backlogged the quarter-weight tenant is served once per
  // four of the full-weight tenant's serves (deficit 0.25/round banks up
  // to 1.0 every fourth round) — so in the first 20 pops, 4 quarters.
  size_t quarter_served = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (order[i].first == "quarter") ++quarter_served;
  }
  EXPECT_EQ(quarter_served, 4u);
}

TEST(WeightedFairQueueTest, PerTenantOrderIsFifo) {
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("a", 5.0, 0);
  queue.RegisterTenant("b", 1.0, 0);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(queue.Push(i % 2 ? "a" : "b", Item{i % 2 ? "a" : "b", i}),
              QueueOp::kOk);
  }
  std::map<std::string, int> last_seen;
  for (const Item& item : DrainAll(&queue)) {
    auto it = last_seen.find(item.first);
    if (it != last_seen.end()) {
      EXPECT_LT(it->second, item.second)
          << "tenant " << item.first << " reordered internally";
    }
    last_seen[item.first] = item.second;
  }
}

TEST(WeightedFairQueueTest, UnregisteredTenantsDefaultToWeightOne) {
  WeightedFairQueue<Item> queue(512);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(queue.Push("x", Item{"x", i}), QueueOp::kOk);
    ASSERT_EQ(queue.Push("y", Item{"y", i}), QueueOp::kOk);
  }
  const std::vector<Item> order = DrainAll(&queue);
  // Equal default weights alternate one-for-one while both are backlogged.
  size_t x_served = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (order[i].first == "x") ++x_served;
  }
  EXPECT_EQ(x_served, 10u);
}

TEST(WeightedFairQueueTest, TenantDepthBoundRejectsImmediately) {
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("bounded", 1.0, 2);
  ASSERT_EQ(queue.Push("bounded", Item{"bounded", 0}), QueueOp::kOk);
  ASSERT_EQ(queue.Push("bounded", Item{"bounded", 1}), QueueOp::kOk);
  // The push fails fast with the typed per-tenant code: a tenant at its
  // depth bound must never block.
  EXPECT_EQ(queue.Push("bounded", Item{"bounded", 2}), QueueOp::kTenantFull);
  // Other tenants are unaffected by the bounded tenant's backlog.
  EXPECT_EQ(queue.Push("free", Item{"free", 0}), QueueOp::kOk);
  // Draining one element reopens the bounded tenant's window.
  Item item;
  ASSERT_EQ(queue.Pop(&item), QueueOp::kOk);
  ASSERT_EQ(queue.Pop(&item), QueueOp::kOk);
  EXPECT_EQ(queue.Push("bounded", Item{"bounded", 4}), QueueOp::kOk);
}

TEST(WeightedFairQueueTest, GlobalCapacityStillBoundsEveryone) {
  WeightedFairQueue<Item> queue(2);
  ASSERT_EQ(queue.Push("a", Item{"a", 0}), QueueOp::kOk);
  ASSERT_EQ(queue.Push("b", Item{"b", 0}), QueueOp::kOk);

  // A push past the global capacity waits for space instead of failing.
  std::atomic<bool> pushed{false};
  std::thread pusher([&] {
    EXPECT_EQ(queue.Push("c", Item{"c", 1}), QueueOp::kOk);
    pushed.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(pushed.load());
  Item item;
  ASSERT_EQ(queue.Pop(&item), QueueOp::kOk);
  pusher.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(WeightedFairQueueTest, CloseDrainsAcceptedWorkThenReportsClosed) {
  WeightedFairQueue<Item> queue(8);
  ASSERT_EQ(queue.Push("a", Item{"a", 0}), QueueOp::kOk);
  ASSERT_EQ(queue.Push("b", Item{"b", 0}), QueueOp::kOk);
  queue.Close();
  EXPECT_EQ(queue.Push("a", Item{"a", 1}), QueueOp::kClosed);
  Item item;
  EXPECT_EQ(queue.Pop(&item), QueueOp::kOk);
  EXPECT_EQ(queue.Pop(&item), QueueOp::kOk);
  EXPECT_EQ(queue.Pop(&item), QueueOp::kClosed);
  EXPECT_EQ(queue.TryPop(&item), QueueOp::kClosed);
}

TEST(WeightedFairQueueTest, TryPopReportsEmptyOnAnOpenEmptyQueue) {
  WeightedFairQueue<Item> queue(8);
  Item item;
  EXPECT_EQ(queue.TryPop(&item), QueueOp::kEmpty);
  ASSERT_EQ(queue.Push("a", Item{"a", 0}), QueueOp::kOk);
  EXPECT_EQ(queue.TryPop(&item), QueueOp::kOk);
  EXPECT_EQ(item, (Item{"a", 0}));
  EXPECT_EQ(queue.TryPop(&item), QueueOp::kEmpty);
  EXPECT_FALSE(queue.closed());
}

TEST(WeightedFairQueueTest, TryPopReportsClosedOnceClosedAndDrained) {
  WeightedFairQueue<Item> queue(8);
  ASSERT_EQ(queue.Push("a", Item{"a", 0}), QueueOp::kOk);
  queue.Close();
  Item item;
  EXPECT_EQ(queue.TryPop(&item), QueueOp::kOk);
  EXPECT_EQ(queue.TryPop(&item), QueueOp::kClosed);
}

TEST(WeightedFairQueueTest, TryPopPicksInTheSameOrderAsPop) {
  // Weighted tenants and uneven costs, so the DRR order differs from the
  // arrival order; TryPop must reproduce Pop's order.
  WeightedFairQueue<Item> popped(64);
  WeightedFairQueue<Item> try_popped(64);
  for (WeightedFairQueue<Item>* queue : {&popped, &try_popped}) {
    queue->RegisterTenant("heavy", 3.0, 0);
    queue->RegisterTenant("light", 0.5, 0);
    for (int i = 0; i < 12; ++i) {
      const char* tenant = (i % 3 == 0) ? "light" : "heavy";
      const double cost = (i % 4 == 0) ? 0.8 : 0.2;
      ASSERT_EQ(queue->Push(tenant, Item{tenant, i}, cost), QueueOp::kOk);
    }
    ASSERT_EQ(queue->Push("other", Item{"other", 12}), QueueOp::kOk);
  }
  std::vector<Item> try_order;
  Item item;
  while (try_popped.TryPop(&item) == QueueOp::kOk) try_order.push_back(item);
  EXPECT_EQ(try_order, DrainAll(&popped));
}

TEST(WeightedFairQueueTest, PathologicallySmallWeightsServeWithoutSpinning) {
  // A valid-but-tiny weight must not iterate its ~1/weight catch-up
  // rounds one by one under the queue mutex: the round advance is granted
  // arithmetically, so this drains instantly instead of spinning 1e9
  // iterations — and the relative proportions still hold (1e-9 : 2e-9 is
  // 1 : 2 while both are backlogged).
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("tiny", 1e-9, 0);
  queue.RegisterTenant("twice", 2e-9, 0);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(queue.Push("tiny", Item{"tiny", i}), QueueOp::kOk);
    ASSERT_EQ(queue.Push("twice", Item{"twice", i}), QueueOp::kOk);
  }
  const std::vector<Item> order = DrainAll(&queue);
  ASSERT_EQ(order.size(), 60u);
  size_t twice_served = 0;
  for (size_t i = 0; i < 30; ++i) {
    if (order[i].first == "twice") ++twice_served;
  }
  EXPECT_NEAR(static_cast<double>(twice_served), 20.0, 2.0)
      << "2:1 weights should serve ~2 twice per tiny";

  // The sole-active-tenant case (the worst spin: nobody else to rotate
  // to) also returns promptly.
  WeightedFairQueue<Item> solo(8);
  solo.RegisterTenant("alone", 1e-12, 0);
  ASSERT_EQ(solo.Push("alone", Item{"alone", 0}), QueueOp::kOk);
  Item item;
  EXPECT_EQ(solo.Pop(&item), QueueOp::kOk);
  EXPECT_EQ(item.second, 0);
}

TEST(WeightedFairQueueTest, EpsilonCostsEqualizePrivacyBudgetShare) {
  // Equal weights, unequal request costs: "cheap" spends epsilon 0.5 per
  // request, "dear" spends 2.0. Fair share must hold in epsilon, not in
  // request count — every full round serves 4 cheap + 1 dear (2.0 epsilon
  // each side), so after k rounds both tenants have released exactly
  // 2k epsilon.
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("cheap", 1.0, 0);
  queue.RegisterTenant("dear", 1.0, 0);
  for (int i = 0; i < 80; ++i) {
    ASSERT_EQ(queue.Push("cheap", Item{"cheap", i}, 0.5), QueueOp::kOk);
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(queue.Push("dear", Item{"dear", i}, 2.0), QueueOp::kOk);
  }

  const std::vector<Item> order = DrainAll(&queue);
  ASSERT_EQ(order.size(), 100u);
  double cheap_eps = 0.0, dear_eps = 0.0;
  size_t checked_rounds = 0;
  for (const Item& item : order) {
    if (item.first == "cheap") {
      cheap_eps += 0.5;
    } else {
      dear_eps += 2.0;
    }
    // At every full-round boundary while both tenants are backlogged
    // (5 serves per round, 20 rounds total), the cumulative epsilon
    // served is identical on both sides.
    if (cheap_eps + dear_eps >= 4.0 * (checked_rounds + 1)) {
      ++checked_rounds;
      EXPECT_EQ(cheap_eps, dear_eps)
          << "after " << (cheap_eps + dear_eps) << " epsilon served";
    }
  }
  EXPECT_EQ(checked_rounds, 20u);
  EXPECT_DOUBLE_EQ(cheap_eps, 40.0);
  EXPECT_DOUBLE_EQ(dear_eps, 40.0);
}

TEST(WeightedFairQueueTest, EpsilonCostsComposeWithWeights) {
  // A weight-3 tenant of expensive (3.0-epsilon) requests against a
  // weight-1 tenant of cheap (1.0) ones: each earns exactly its own front
  // cost per round, so serves alternate 1:1 in count — which is the 3:1
  // weighted share in epsilon.
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("big", 3.0, 0);
  queue.RegisterTenant("small", 1.0, 0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(queue.Push("big", Item{"big", i}, 3.0), QueueOp::kOk);
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(queue.Push("small", Item{"small", i}, 1.0), QueueOp::kOk);
  }
  const std::vector<Item> order = DrainAll(&queue);
  ASSERT_EQ(order.size(), 40u);
  // Any prefix of k full rounds (4 serves each) holds the 3:1 epsilon
  // ratio exactly while both tenants stay backlogged (big's 10 requests
  // last 5 full rounds; after that the cheap tenant drains alone).
  for (size_t round = 1; round <= 5; ++round) {
    double big_eps = 0.0, small_eps = 0.0;
    for (size_t i = 0; i < round * 4; ++i) {
      if (order[i].first == "big") {
        big_eps += 3.0;
      } else {
        small_eps += 1.0;
      }
    }
    EXPECT_DOUBLE_EQ(big_eps, 3.0 * small_eps) << "round " << round;
  }
}

TEST(WeightedFairQueueTest, ExpensiveFrontRequestDoesNotSpinOrStarve) {
  // A single backlogged tenant whose front request costs 1000x its weight
  // must be served via the arithmetic round fast-forward, not a 1000-
  // iteration spin; afterwards cheap requests flow normally.
  WeightedFairQueue<Item> queue(8);
  queue.RegisterTenant("t", 0.001, 0);
  ASSERT_EQ(queue.Push("t", Item{"t", 0}, 1.0), QueueOp::kOk);
  ASSERT_EQ(queue.Push("t", Item{"t", 1}, 0.001), QueueOp::kOk);
  const std::vector<Item> order = DrainAll(&queue);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].second, 0);
  EXPECT_EQ(order[1].second, 1);
}

TEST(WeightedFairQueueTest, ReweightingAppliesFromTheNextRound) {
  WeightedFairQueue<Item> queue(512);
  queue.RegisterTenant("t", 1.0, 0);
  queue.RegisterTenant("u", 1.0, 0);
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(queue.Push("t", Item{"t", i}), QueueOp::kOk);
    ASSERT_EQ(queue.Push("u", Item{"u", i}), QueueOp::kOk);
  }
  queue.RegisterTenant("t", 3.0, 0);  // upsert: same queues, new weight
  const std::vector<Item> order = DrainAll(&queue);
  size_t t_served = 0;
  for (size_t i = 0; i < 16; ++i) {
    if (order[i].first == "t") ++t_served;
  }
  EXPECT_EQ(t_served, 12u) << "3:1 weights serve 12 t per 4 u";
}

}  // namespace
}  // namespace pcor
