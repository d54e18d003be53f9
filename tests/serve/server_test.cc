// The serving front-end's core contract: coalescing is invisible. A fixed
// per-client request plan must produce bit-identical PcorRelease results
// whether it is submitted serially, packed into one giant micro-batch, or
// raced from 16 client threads — and every served entry must replay exactly
// through PcorEngine::Release from its recorded seed.
#include "src/serve/server.h"

#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

constexpr size_t kClients = 16;
constexpr size_t kPerClient = 8;
constexpr uint64_t kServerSeed = 424242;

struct PlannedRequest {
  std::string client;
  size_t k = 0;  // the client's own submission index
  uint32_t v_row = 0;
};

// (client, k) -> the completed entry.
using ResultMap = std::map<std::pair<std::string, size_t>, BatchEntry>;

class ServerDeterminismTest : public ::testing::Test {
 protected:
  ServerDeterminismTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  // Every client's ordered plan: mostly the real outlier, with one
  // guaranteed-failing row in the middle so error determinism is covered.
  std::vector<PlannedRequest> MakePlan() const {
    std::vector<PlannedRequest> plan;
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t k = 0; k < kPerClient; ++k) {
        PlannedRequest req;
        req.client = strings::Format("c%zu", c);
        req.k = k;
        req.v_row = (k == 3) ? 1 : grid_.v_row;  // row 1 never releases
        plan.push_back(req);
      }
    }
    return plan;
  }

  PcorOptions ReleaseOptions() const {
    PcorOptions options;
    options.sampler = SamplerKind::kBfs;
    options.num_samples = 8;
    options.total_epsilon = 0.4;
    return options;
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

void ExpectIdenticalEntry(const BatchEntry& a, const BatchEntry& b) {
  EXPECT_EQ(a.v_row, b.v_row);
  EXPECT_EQ(a.rng_seed, b.rng_seed);
  ASSERT_EQ(a.status.ok(), b.status.ok())
      << a.status.ToString() << " vs " << b.status.ToString();
  if (!a.status.ok()) {
    EXPECT_EQ(a.status.code(), b.status.code());
    return;
  }
  EXPECT_EQ(a.release.context, b.release.context);
  EXPECT_EQ(a.release.starting_context, b.release.starting_context);
  EXPECT_EQ(a.release.description, b.release.description);
  EXPECT_DOUBLE_EQ(a.release.epsilon_spent, b.release.epsilon_spent);
  EXPECT_DOUBLE_EQ(a.release.epsilon1, b.release.epsilon1);
  EXPECT_EQ(a.release.num_candidates, b.release.num_candidates);
  EXPECT_EQ(a.release.probes, b.release.probes);
  EXPECT_DOUBLE_EQ(a.release.utility_score, b.release.utility_score);
  EXPECT_EQ(a.release.hit_probe_cap, b.release.hit_probe_cap);
}

TEST_F(ServerDeterminismTest, SerialCoalescedAndRacedRunsAreBitIdentical) {
  const std::vector<PlannedRequest> plan = MakePlan();

  // Run A — serial: one thread submits the whole plan in order, waiting
  // for each result before the next submission (no coalescing possible).
  ResultMap serial;
  {
    ServeOptions options;
    options.release = ReleaseOptions();
    options.seed = kServerSeed;
    options.max_batch = 1;
    PcorServer server(engine_, options);
    for (const PlannedRequest& req : plan) {
      BatchRequest request;
      request.v_row = req.v_row;
      auto future = server.SubmitAsync(request, req.client);
      ASSERT_TRUE(future.ok()) << future.status().ToString();
      serial[{req.client, req.k}] = future->Get();
    }
  }

  // Run B — one giant coalesced micro-batch: the whole plan is admitted
  // while the dispatcher is parked on a gate request (from a tenant of its
  // own, so the plan's seeds are untouched), so the full plan executes as
  // one ReleaseBatch call once the gate opens.
  ResultMap coalesced;
  {
    testing_util::DispatchGate gate;
    ServeOptions options;
    options.release = ReleaseOptions();
    options.seed = kServerSeed;
    options.max_batch = plan.size();
    options.pre_batch_hook = gate.Hook();
    PcorServer server(engine_, options);
    BatchRequest gate_request;
    gate_request.v_row = grid_.v_row;
    auto held = server.SubmitAsync(gate_request, "gate");
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    gate.WaitUntilHeld();
    std::vector<Future<BatchEntry>> futures;
    futures.reserve(plan.size());
    for (const PlannedRequest& req : plan) {
      BatchRequest request;
      request.v_row = req.v_row;
      auto future = server.SubmitAsync(request, req.client);
      ASSERT_TRUE(future.ok()) << future.status().ToString();
      futures.push_back(std::move(*future));
    }
    gate.Open();
    EXPECT_TRUE(held->Get().status.ok());
    for (size_t i = 0; i < plan.size(); ++i) {
      coalesced[{plan[i].client, plan[i].k}] = futures[i].Get();
    }
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.max_coalesced, plan.size() / 2)
        << "the coalescing run should actually coalesce";
  }

  // Run C — 16 racing client threads with a small batch bound, so the
  // micro-batch shapes differ run to run; the results must not.
  ResultMap raced;
  {
    ServeOptions options;
    options.release = ReleaseOptions();
    options.seed = kServerSeed;
    options.max_batch = 4;
    PcorServer server(engine_, options);
    std::mutex raced_mu;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const std::string client = strings::Format("c%zu", c);
        std::vector<Future<BatchEntry>> futures;
        std::vector<size_t> ks;
        for (const PlannedRequest& req : plan) {
          if (req.client != client) continue;
          BatchRequest request;
          request.v_row = req.v_row;
          auto future = server.SubmitAsync(request, client);
          ASSERT_TRUE(future.ok()) << future.status().ToString();
          futures.push_back(std::move(*future));
          ks.push_back(req.k);
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          BatchEntry entry = futures[i].Get();
          std::unique_lock<std::mutex> lock(raced_mu);
          raced[{client, ks[i]}] = std::move(entry);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(coalesced.size(), plan.size());
  ASSERT_EQ(raced.size(), plan.size());
  for (const auto& [key, entry] : serial) {
    SCOPED_TRACE(key.first + "/" + std::to_string(key.second));
    ExpectIdenticalEntry(entry, coalesced.at(key));
    ExpectIdenticalEntry(entry, raced.at(key));
  }
}

// The dispatch contract: the dispatcher never waits for stragglers. A
// batch is exactly what was queued when it became free, capped by
// max_batch, in scheduler order. K requests from three weighted tenants
// are queued behind a gated first batch; the hook then sees the gate
// batch followed by ceil(K / max_batch) full-as-possible batches whose
// concatenation is the WeightedFairQueue's own pick order.
void ExpectDispatchOfQueuedBacklog(const PcorEngine& engine, uint32_t v_row,
                                   size_t queued, size_t max_batch) {
  const double kCost = 0.4;
  const std::vector<std::pair<std::string, double>> tenants = {
      {"a", 2.0}, {"b", 1.0}, {"c", 1.0}};
  const std::string pattern = "aabacbbcaacbabcc";
  ASSERT_LE(queued, pattern.size());

  testing_util::DispatchGate gate;
  std::mutex seen_mu;
  std::vector<std::vector<uint64_t>> seen;  // each batch's request seeds
  ServeOptions options;
  options.release.sampler = SamplerKind::kBfs;
  options.release.num_samples = 4;
  options.release.total_epsilon = kCost;
  options.seed = kServerSeed;
  options.max_batch = max_batch;
  options.pre_batch_hook = [&](std::span<const BatchRequest> batch) {
    std::vector<uint64_t> seeds;
    for (const BatchRequest& request : batch) {
      seeds.push_back(request.rng_seed);
    }
    {
      std::unique_lock<std::mutex> lock(seen_mu);
      seen.push_back(std::move(seeds));
    }
    gate.Pass();
  };
  PcorServer server(engine, options);
  // The oracle: the same tenants and pushes through a standalone queue.
  WeightedFairQueue<uint64_t> oracle(queued);
  for (const auto& [id, weight] : tenants) {
    TenantConfig config;
    config.weight = weight;
    ASSERT_TRUE(server.RegisterTenant(id, config).ok());
    oracle.RegisterTenant(id, weight, 0);
  }

  BatchRequest request;
  request.v_row = v_row;
  auto held = server.SubmitAsync(request, "gate");
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  gate.WaitUntilHeld();
  std::map<std::string, uint64_t> next_k;
  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < queued; ++i) {
    const std::string tenant(1, pattern[i]);
    auto future = server.SubmitAsync(request, tenant);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(*future));
    const uint64_t seed =
        PcorServer::RequestSeed(kServerSeed, tenant, next_k[tenant]++);
    ASSERT_EQ(oracle.Push(tenant, uint64_t{seed}, kCost), QueueOp::kOk);
  }
  gate.Open();
  EXPECT_TRUE(held->Get().status.ok());
  for (auto& future : futures) EXPECT_TRUE(future.Get().status.ok());

  std::vector<uint64_t> expected;
  oracle.Close();
  uint64_t seed = 0;
  while (oracle.Pop(&seed) == QueueOp::kOk) expected.push_back(seed);

  std::unique_lock<std::mutex> lock(seen_mu);
  const size_t backlog_batches = (queued + max_batch - 1) / max_batch;
  ASSERT_EQ(seen.size(), 1 + backlog_batches);
  const uint64_t gate_seed = PcorServer::RequestSeed(kServerSeed, "gate", 0);
  EXPECT_EQ(seen[0], std::vector<uint64_t>{gate_seed});
  std::vector<uint64_t> dispatched;
  for (size_t b = 1; b < seen.size(); ++b) {
    const size_t left = queued - dispatched.size();
    EXPECT_EQ(seen[b].size(), std::min(max_batch, left)) << "batch " << b;
    dispatched.insert(dispatched.end(), seen[b].begin(), seen[b].end());
  }
  EXPECT_EQ(dispatched, expected);
  EXPECT_EQ(server.stats().batches, 1 + backlog_batches);
}

TEST_F(ServerDeterminismTest, QueuedBacklogWithinMaxBatchLeavesAsOneBatch) {
  ExpectDispatchOfQueuedBacklog(engine_, grid_.v_row, /*queued=*/9,
                                /*max_batch=*/16);
}

TEST_F(ServerDeterminismTest, QueuedBacklogBeyondMaxBatchSplitsAtTheCap) {
  ExpectDispatchOfQueuedBacklog(engine_, grid_.v_row, /*queued=*/12,
                                /*max_batch=*/5);
}

TEST_F(ServerDeterminismTest, ServedEntriesReplayThroughRelease) {
  ServeOptions options;
  options.release = ReleaseOptions();
  options.seed = kServerSeed;
  options.max_batch = 8;
  PcorServer server(engine_, options);

  for (size_t k = 0; k < 6; ++k) {
    BatchRequest request;
    request.v_row = grid_.v_row;
    auto future = server.SubmitAsync(request, "replayer");
    ASSERT_TRUE(future.ok());
    BatchEntry entry = future->Get();
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();

    // The seed is predictable from (server seed, client, k)...
    EXPECT_EQ(entry.rng_seed,
              PcorServer::RequestSeed(kServerSeed, "replayer", k));
    // ...and replaying it through the engine reproduces the release.
    Rng rng(entry.rng_seed);
    auto replay = engine_.Release(grid_.v_row, options.release, &rng);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->context, entry.release.context);
    EXPECT_EQ(replay->description, entry.release.description);
    EXPECT_DOUBLE_EQ(replay->epsilon_spent, entry.release.epsilon_spent);
    EXPECT_DOUBLE_EQ(replay->utility_score, entry.release.utility_score);
  }
}

// Acceptance bar for the QoS scheduler: an adversarial 3-tenant mix with
// skewed weights and heterogeneous per-request PcorOptions must produce
// bit-identical per-request results (context/eps/utility/probes) whether
// the server runs 1 release thread with serial submission, or 16 release
// threads with racing tenant threads and a flooded queue. Seeds are fixed
// at admission per (tenant, k); nothing downstream may depend on
// scheduling.
TEST_F(ServerDeterminismTest, SerialAndRacedSchedulingAreBitIdentical) {
  struct TenantPlan {
    std::string id;
    TenantConfig config;
    std::vector<BatchRequest> requests;
  };

  // Heterogeneous per-request overrides: zeta keeps the server default,
  // eta flips sampler/epsilon per request, theta pins a cheap uniform
  // configuration — and every tenant's k==2 request targets row 1, which
  // never releases, so error determinism is covered too. Uniform sampling
  // for a row that matches no context spins until its probe cap, so the
  // cap is kept small: at the default 20M it holds the dispatcher for
  // seconds.
  PcorOptions cheap_uniform;
  cheap_uniform.sampler = SamplerKind::kUniform;
  cheap_uniform.num_samples = 4;
  cheap_uniform.total_epsilon = 0.1;
  cheap_uniform.max_probes = 200'000;
  PcorOptions wide_bfs = ReleaseOptions();
  wide_bfs.num_samples = 12;
  wide_bfs.total_epsilon = 0.8;

  std::vector<TenantPlan> plans(3);
  plans[0].id = "zeta";
  plans[0].config.weight = 10.0;
  plans[1].id = "eta";
  plans[1].config.weight = 1.0;
  plans[2].id = "theta";
  plans[2].config.weight = 0.5;
  plans[2].config.epsilon_cap = 100.0;
  for (size_t t = 0; t < plans.size(); ++t) {
    for (size_t k = 0; k < 6; ++k) {
      BatchRequest request;
      request.v_row = (k == 2) ? 1 : grid_.v_row;
      if (t == 1) request.options = (k % 2) ? cheap_uniform : wide_bfs;
      if (t == 2) request.options = cheap_uniform;
      plans[t].requests.push_back(request);
    }
  }

  const auto run = [&](size_t release_threads, bool raced, ResultMap* out) {
    ResultMap& results = *out;
    ServeOptions options;
    options.release = ReleaseOptions();
    // The server's num_samples caps every override's, so it admits
    // wide_bfs's.
    options.release.num_samples = wide_bfs.num_samples;
    options.seed = kServerSeed;
    options.release_threads = release_threads;
    options.max_batch = raced ? 6 : 1;
    PcorServer server(engine_, options);
    for (const TenantPlan& plan : plans) {
      ASSERT_TRUE(server.RegisterTenant(plan.id, plan.config).ok());
    }
    if (!raced) {
      for (const TenantPlan& plan : plans) {
        for (size_t k = 0; k < plan.requests.size(); ++k) {
          auto future = server.SubmitAsync(plan.requests[k], plan.id);
          ASSERT_TRUE(future.ok()) << future.status().ToString();
          results[{plan.id, k}] = future->Get();
        }
      }
    } else {
      // One racing submitter thread per tenant (the per-tenant k order is
      // part of the contract), each flooding its whole plan before
      // collecting — queue composition and batch shapes differ run to run.
      std::mutex results_mu;
      std::vector<std::thread> threads;
      for (const TenantPlan& plan : plans) {
        threads.emplace_back([&, &plan = plan] {
          std::vector<Future<BatchEntry>> futures;
          for (const BatchRequest& request : plan.requests) {
            auto future = server.SubmitAsync(request, plan.id);
            ASSERT_TRUE(future.ok()) << future.status().ToString();
            futures.push_back(std::move(*future));
          }
          for (size_t k = 0; k < futures.size(); ++k) {
            BatchEntry entry = futures[k].Get();
            std::unique_lock<std::mutex> lock(results_mu);
            results[{plan.id, k}] = std::move(entry);
          }
        });
      }
      for (auto& thread : threads) thread.join();
    }
  };

  ResultMap serial;
  ResultMap raced;
  run(1, false, &serial);
  run(16, true, &raced);

  ASSERT_EQ(serial.size(), 18u);
  ASSERT_EQ(raced.size(), 18u);
  for (const auto& [key, entry] : serial) {
    SCOPED_TRACE(key.first + "/" + std::to_string(key.second));
    ExpectIdenticalEntry(entry, raced.at(key));
  }
  // The overrides really took effect: eta's odd submissions and all of
  // theta's spent the cheap 0.1 epsilon, not the server default.
  EXPECT_DOUBLE_EQ(serial.at({"eta", 1}).release.epsilon_spent, 0.1);
  EXPECT_DOUBLE_EQ(serial.at({"eta", 0}).release.epsilon_spent, 0.8);
  EXPECT_DOUBLE_EQ(serial.at({"theta", 0}).release.epsilon_spent, 0.1);
}

TEST_F(ServerDeterminismTest, InvalidPerRequestOptionsRejectedAtAdmission) {
  ServeOptions options;
  options.release = ReleaseOptions();
  options.seed = kServerSeed;
  PcorServer server(engine_, options);

  BatchRequest bad;
  bad.v_row = grid_.v_row;
  bad.options = ReleaseOptions();
  bad.options->total_epsilon = 0.0;
  auto rejected = server.SubmitAsync(bad, "validator");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  // Nothing was charged and no stream slot was consumed: the next good
  // submission is the client's k=0 request.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("validator"), 0.0);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);

  bad.options->total_epsilon = 0.4;
  bad.options->num_samples = 0;
  EXPECT_TRUE(server.SubmitAsync(bad, "validator")
                  .status()
                  .IsInvalidArgument());
  bad.options->num_samples = 4;
  bad.options->max_probes = 0;
  EXPECT_TRUE(server.SubmitAsync(bad, "validator")
                  .status()
                  .IsInvalidArgument());

  BatchRequest good;
  good.v_row = grid_.v_row;
  auto future = server.SubmitAsync(good, "validator");
  ASSERT_TRUE(future.ok());
  BatchEntry entry = future->Get();
  EXPECT_EQ(entry.rng_seed,
            PcorServer::RequestSeed(kServerSeed, "validator", 0));
  EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
}

TEST_F(ServerDeterminismTest, TinyEpsilonOverrideRejectedBeforeAnyCharge) {
  // 4.9e-324 is positive and finite, but the eps1 it splits into is 0 for
  // DFS (/(2n+2)) and for direct (/2). Admitted, it would be charged and
  // then abort the dispatcher in the mechanism's invariant check.
  ServeOptions options;
  options.release = ReleaseOptions();
  options.seed = kServerSeed;
  PcorServer server(engine_, options);

  for (SamplerKind sampler : {SamplerKind::kDfs, SamplerKind::kDirect}) {
    SCOPED_TRACE(SamplerKindName(sampler));
    BatchRequest tiny;
    tiny.v_row = grid_.v_row;
    tiny.options = ReleaseOptions();
    tiny.options->sampler = sampler;
    tiny.options->total_epsilon = 4.9e-324;
    auto rejected = server.SubmitAsync(tiny, "tiny");
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsInvalidArgument())
        << rejected.status().ToString();
  }
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
  EXPECT_EQ(server.accountant().SpentBy("tiny"), 0.0);

  // The server is still up, and the tenant's next request is its k=0.
  BatchRequest plain;
  plain.v_row = grid_.v_row;
  auto future = server.SubmitAsync(plain, "tiny");
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  BatchEntry entry = future->Get();
  EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
  EXPECT_EQ(entry.rng_seed, PcorServer::RequestSeed(kServerSeed, "tiny", 0));
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tiny"), 0.4);
}

TEST_F(ServerDeterminismTest, OverrideMayLowerButNotRaiseServerSizes) {
  // ServeOptions::release's max_probes and num_samples are ceilings: an
  // override above either is refused like an invalid one, so no tenant
  // can hold the dispatcher longer than the owner's default allows.
  ServeOptions options;
  options.release = ReleaseOptions();
  options.release.max_probes = 1'000'000;
  options.seed = kServerSeed;
  PcorServer server(engine_, options);

  BatchRequest wider;
  wider.v_row = grid_.v_row;
  wider.options = options.release;
  wider.options->num_samples = options.release.num_samples + 1;
  BatchRequest longer = wider;
  longer.options = options.release;
  longer.options->max_probes = options.release.max_probes + 1;
  for (const BatchRequest* request : {&wider, &longer}) {
    auto rejected = server.SubmitAsync(*request, "greedy");
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsInvalidArgument())
        << rejected.status().ToString();
  }
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
  EXPECT_EQ(server.accountant().SpentBy("greedy"), 0.0);

  // Equal and lower values are admitted, on the tenant's first slots.
  BatchRequest equal;
  equal.v_row = grid_.v_row;
  equal.options = options.release;
  BatchRequest lower = equal;
  lower.options->num_samples = 4;
  lower.options->max_probes = 200'000;
  size_t k = 0;
  for (const BatchRequest* request : {&equal, &lower}) {
    auto future = server.SubmitAsync(*request, "greedy");
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    BatchEntry entry = future->Get();
    EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_EQ(entry.rng_seed,
              PcorServer::RequestSeed(kServerSeed, "greedy", k++));
  }
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
}

TEST_F(ServerDeterminismTest, InvalidServerDefaultRejectedAtAdmission) {
  // A NaN server-default epsilon must be refused like a bad override: it
  // would otherwise reach the accountant and void the tenant's cap.
  ServeOptions options;
  options.release = ReleaseOptions();
  options.release.total_epsilon = std::numeric_limits<double>::quiet_NaN();
  options.seed = kServerSeed;
  options.per_client_epsilon_cap = 0.8;  // admits exactly 2 of 0.4
  PcorServer server(engine_, options);

  BatchRequest plain;
  plain.v_row = grid_.v_row;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto rejected = server.SubmitAsync(plain, "tenant");
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsInvalidArgument())
        << rejected.status().ToString();
  }
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 0.0);
  EXPECT_EQ(server.stats().rejected_invalid, 2u);

  // Valid overrides are admitted at their own price, on the client's
  // first stream slots, and the cap still binds.
  BatchRequest priced = plain;
  priced.options = ReleaseOptions();
  for (size_t k = 0; k < 2; ++k) {
    auto future = server.SubmitAsync(priced, "tenant");
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    BatchEntry entry = future->Get();
    EXPECT_EQ(entry.rng_seed,
              PcorServer::RequestSeed(kServerSeed, "tenant", k));
    EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
  }
  auto over = server.SubmitAsync(priced, "tenant");
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsPrivacyBudgetExceeded())
      << over.status().ToString();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 0.8);
  EXPECT_EQ(server.stats().rejected_budget, 1u);
}

TEST_F(ServerDeterminismTest, PerRequestEpsilonChargedAtItsOwnPrice) {
  ServeOptions options;
  options.release = ReleaseOptions();  // default 0.4 per release
  options.seed = kServerSeed;
  PcorServer server(engine_, options);

  BatchRequest pricey;
  pricey.v_row = grid_.v_row;
  pricey.options = ReleaseOptions();
  pricey.options->total_epsilon = 1.5;
  auto future = server.SubmitAsync(pricey, "spender");
  ASSERT_TRUE(future.ok());
  BatchEntry entry = future->Get();
  ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
  EXPECT_DOUBLE_EQ(entry.release.epsilon_spent, 1.5);
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("spender"), 1.5);
}

TEST_F(ServerDeterminismTest, TenantEpsilonCapOverridesServerDefault) {
  ServeOptions options;
  options.release = ReleaseOptions();  // 0.4 per release
  options.seed = kServerSeed;
  options.per_client_epsilon_cap = 10.0;
  PcorServer server(engine_, options);
  TenantConfig tight;
  tight.epsilon_cap = 0.8;  // admits exactly 2 of the 0.4 releases
  ASSERT_TRUE(server.RegisterTenant("tight", tight).ok());

  BatchRequest request;
  request.v_row = grid_.v_row;
  for (size_t k = 0; k < 2; ++k) {
    auto future = server.SubmitAsync(request, "tight");
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    EXPECT_TRUE(future->Get().status.ok());
  }
  auto third = server.SubmitAsync(request, "tight");
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsPrivacyBudgetExceeded())
      << third.status().ToString();
  // An unregistered tenant still enjoys the server-wide default cap.
  auto other = server.SubmitAsync(request, "roomy");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->Get().status.ok());
  // Re-registering with epsilon_cap unset restores inheritance of the
  // server default — the stale 0.8 override must not linger.
  TenantConfig uncapped;
  ASSERT_TRUE(server.RegisterTenant("tight", uncapped).ok());
  auto fourth = server.SubmitAsync(request, "tight");
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  EXPECT_TRUE(fourth->Get().status.ok());
}

TEST_F(ServerDeterminismTest, RegisterTenantValidatesConfig) {
  ServeOptions options;
  options.release = ReleaseOptions();
  PcorServer server(engine_, options);
  TenantConfig bad;
  bad.weight = 0.0;
  EXPECT_TRUE(server.RegisterTenant("bad", bad).IsInvalidArgument());
  bad.weight = 2.0;
  bad.epsilon_cap = -1.0;
  EXPECT_TRUE(server.RegisterTenant("bad", bad).IsInvalidArgument());
  bad.epsilon_cap = 1.0;
  EXPECT_TRUE(server.RegisterTenant("bad", bad).ok());
}

TEST_F(ServerDeterminismTest, DistinctClientsDrawDistinctStreams) {
  // Identical request bodies from different clients must not produce
  // identical randomness: the stream family is keyed by client id.
  EXPECT_NE(PcorServer::RequestSeed(kServerSeed, "alice", 0),
            PcorServer::RequestSeed(kServerSeed, "bob", 0));
  EXPECT_NE(PcorServer::RequestSeed(kServerSeed, "alice", 0),
            PcorServer::RequestSeed(kServerSeed, "alice", 1));
  EXPECT_NE(PcorServer::RequestSeed(1, "alice", 0),
            PcorServer::RequestSeed(2, "alice", 0));
}

TEST_F(ServerDeterminismTest, SubmitManyPreservesOrderAndSeeds) {
  ServeOptions options;
  options.release = ReleaseOptions();
  options.seed = kServerSeed;
  PcorServer server(engine_, options);

  std::vector<BatchRequest> requests(5);
  for (auto& r : requests) r.v_row = grid_.v_row;
  auto futures = server.SubmitMany(std::span<const BatchRequest>(requests),
                                   "bulk");
  ASSERT_EQ(futures.size(), requests.size());
  for (size_t k = 0; k < futures.size(); ++k) {
    ASSERT_TRUE(futures[k].ok());
    BatchEntry entry = futures[k]->Get();
    EXPECT_EQ(entry.rng_seed,
              PcorServer::RequestSeed(kServerSeed, "bulk", k));
    EXPECT_TRUE(entry.status.ok());
  }
}

}  // namespace
}  // namespace pcor
