#include "src/exp/serving.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "tests/testing_util.h"

namespace pcor {
namespace {

class ServingWorkloadTest : public ::testing::Test {
 protected:
  ServingWorkloadTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

TEST_F(ServingWorkloadTest, DrivesConcurrentClientsToCompletion) {
  ServingConfig config;
  config.clients = 3;
  config.requests_per_client = 5;
  config.serve.release.sampler = SamplerKind::kBfs;
  config.serve.release.num_samples = 6;
  config.serve.release.total_epsilon = 0.2;
  config.serve.max_batch = 8;
  config.serve.seed = 11;

  auto result = RunServingWorkload(engine_, {grid_.v_row}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->released, 15u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->rejected_budget, 0u);
  EXPECT_EQ(result->rejected_queue, 0u);
  EXPECT_EQ(result->latencies_s.size(), 15u);
  EXPECT_GE(result->batches, 1u);
  EXPECT_GE(result->max_coalesced, 1u);
  EXPECT_NEAR(result->epsilon_spent, 15 * 0.2, 1e-9);
  EXPECT_GT(result->wall_seconds, 0.0);
  EXPECT_GT(result->releases_per_second(), 0.0);
  // Quantiles are well-formed over the collected latencies.
  EXPECT_GE(result->latency_quantile(0.99), result->latency_quantile(0.50));
}

TEST_F(ServingWorkloadTest, SurfacesBudgetRejectionCounts) {
  ServingConfig config;
  config.clients = 2;
  config.requests_per_client = 6;
  config.serve.release.sampler = SamplerKind::kBfs;
  config.serve.release.num_samples = 6;
  config.serve.release.total_epsilon = 0.25;
  // cap admits exactly 4 of the 6 requests per client.
  config.serve.per_client_epsilon_cap = 1.0;
  config.serve.seed = 12;

  auto result = RunServingWorkload(engine_, {grid_.v_row}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->released, 8u);
  EXPECT_EQ(result->rejected_budget, 4u);
  EXPECT_EQ(result->rejected_queue, 0u);
  EXPECT_NEAR(result->epsilon_spent, 8 * 0.25, 1e-9);
}

TEST_F(ServingWorkloadTest, ContainsWorkerExceptionsInsteadOfTerminating) {
  ServingConfig config;
  config.clients = 2;
  config.requests_per_client = 3;
  config.serve.release.sampler = SamplerKind::kBfs;
  config.serve.release.num_samples = 6;
  config.serve.seed = 13;
  // Every micro-batch is poisoned: each Get() rethrows inside a client
  // thread, which the driver must absorb as a tallied exception rather
  // than letting std::terminate take the process down.
  config.serve.pre_batch_hook = [](std::span<const BatchRequest>) {
    throw std::runtime_error("poisoned batch");
  };

  auto result = RunServingWorkload(engine_, {grid_.v_row}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->exceptions, 6u);
  EXPECT_EQ(result->released, 0u);
  EXPECT_TRUE(result->latencies_s.empty());
}

TEST_F(ServingWorkloadTest, RejectsDegenerateConfigurations) {
  ServingConfig config;
  EXPECT_TRUE(RunServingWorkload(engine_, {}, config)
                  .status()
                  .IsInvalidArgument());
  config.clients = 0;
  EXPECT_TRUE(RunServingWorkload(engine_, {grid_.v_row}, config)
                  .status()
                  .IsInvalidArgument());
  config.clients = 1;
  TenantWorkload nameless;
  config.tenants = {nameless};
  EXPECT_TRUE(RunServingWorkload(engine_, {grid_.v_row}, config)
                  .status()
                  .IsInvalidArgument());
  TenantWorkload dup;
  dup.id = "dup";
  config.tenants = {dup, dup};
  EXPECT_TRUE(RunServingWorkload(engine_, {grid_.v_row}, config)
                  .status()
                  .IsInvalidArgument());
  TenantWorkload bad_weight;
  bad_weight.id = "w";
  bad_weight.tenant.weight = -2.0;
  config.tenants = {bad_weight};
  EXPECT_TRUE(RunServingWorkload(engine_, {grid_.v_row}, config)
                  .status()
                  .IsInvalidArgument());
  TenantWorkload bad_options;
  bad_options.id = "o";
  bad_options.request_options.emplace();
  bad_options.request_options->total_epsilon = -1.0;
  config.tenants = {bad_options};
  EXPECT_TRUE(RunServingWorkload(engine_, {grid_.v_row}, config)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ServingWorkloadTest, ReportsPerTenantBreakdown) {
  ServingConfig config;
  config.serve.release.sampler = SamplerKind::kBfs;
  config.serve.release.num_samples = 6;
  config.serve.release.total_epsilon = 0.2;
  config.serve.max_batch = 8;
  config.serve.seed = 21;

  TenantWorkload premium;
  premium.id = "premium";
  premium.tenant.weight = 4.0;
  premium.threads = 2;
  premium.requests_per_thread = 3;
  TenantWorkload cheap;
  cheap.id = "cheap";
  cheap.requests_per_thread = 4;
  cheap.request_options.emplace();
  cheap.request_options->sampler = SamplerKind::kUniform;
  cheap.request_options->num_samples = 4;
  cheap.request_options->total_epsilon = 0.05;
  config.tenants = {premium, cheap};

  auto result = RunServingWorkload(engine_, {grid_.v_row}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tenants.size(), 2u);
  const TenantResult& premium_result = result->tenants[0];
  const TenantResult& cheap_result = result->tenants[1];
  EXPECT_EQ(premium_result.id, "premium");
  EXPECT_EQ(cheap_result.id, "cheap");
  EXPECT_EQ(premium_result.released, 6u);
  EXPECT_EQ(cheap_result.released, 4u);
  EXPECT_EQ(result->released, 10u);
  EXPECT_EQ(premium_result.latencies_s.size(), 6u);
  EXPECT_EQ(cheap_result.latencies_s.size(), 4u);
  EXPECT_GT(premium_result.wall_seconds, 0.0);
  // The per-request override priced cheap's releases at 0.05, premium's at
  // the 0.2 default — visible in the ledger.
  EXPECT_NEAR(result->epsilon_spent, 6 * 0.2 + 4 * 0.05, 1e-9);
}

TEST_F(ServingWorkloadTest, FloodModeSubmitsOpenLoop) {
  ServingConfig config;
  config.serve.release.sampler = SamplerKind::kBfs;
  config.serve.release.num_samples = 6;
  config.serve.release.total_epsilon = 0.2;
  config.serve.max_batch = 4;
  config.serve.queue_capacity = 64;
  config.serve.seed = 22;
  // The flood's first request is parked in the gate while the other
  // eleven queue behind it. RunServingWorkload owns the server and exposes
  // no admission signal, so the gate opens after a fixed hold: 100 ms is
  // orders of magnitude longer than eleven submissions take.
  testing_util::DispatchGate gate;
  config.serve.pre_batch_hook = gate.Hook();
  std::thread opener([&gate] {
    gate.WaitUntilHeld();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    gate.Open();
  });

  TenantWorkload flooder;
  flooder.id = "flooder";
  flooder.requests_per_thread = 12;
  flooder.flood = true;
  config.tenants = {flooder};

  auto result = RunServingWorkload(engine_, {grid_.v_row}, config);
  opener.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->released, 12u);
  EXPECT_EQ(result->rejected_queue, 0u);
  ASSERT_EQ(result->tenants.size(), 1u);
  EXPECT_EQ(result->tenants[0].released, 12u);
  // An open-loop flood coalesces: 12 requests in far fewer batches.
  EXPECT_LE(result->batches, 6u);
  EXPECT_GE(result->max_coalesced, 2u);
}

}  // namespace
}  // namespace pcor
