// Parameterized property sweeps over (detector x utility x sampler): the
// invariants of Definition 3.2 must hold for every combination, which is
// exactly the paper's genericity claim (contribution 4). The serving
// sweeps at the bottom extend the epsilon-accounting invariants to
// server-coalesced batches and the BudgetAccountant rejection boundary.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/context/coe.h"
#include "src/dp/budget.h"
#include "src/search/pcor.h"
#include "src/serve/server.h"
#include "src/outlier/grubbs.h"
#include "src/outlier/histogram_detector.h"
#include "src/outlier/iqr.h"
#include "src/outlier/lof.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

// Detector configurations sized for the tiny grid workload.
std::unique_ptr<OutlierDetector> MakeTunedDetector(const std::string& name) {
  if (name == "zscore") {
    return std::make_unique<ZscoreDetector>(
        testing_util::MakeTestDetector());
  }
  if (name == "iqr") {
    IqrOptions options;
    options.min_population = 4;
    options.multiplier = 2.0;
    return std::make_unique<IqrDetector>(options);
  }
  if (name == "grubbs") {
    GrubbsOptions options;
    options.min_population = 4;
    options.max_iterations = 3;
    return std::make_unique<GrubbsDetector>(options);
  }
  if (name == "lof") {
    LofOptions options;
    options.k = 3;
    options.min_population = 5;
    options.score_threshold = 1.5;
    return std::make_unique<LofDetector>(options);
  }
  return nullptr;
}

using SweepParam = std::tuple<std::string, UtilityKind, SamplerKind>;

class PcorSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PcorSweepTest, ReleaseIsValidPrivateAndAccounted) {
  const auto& [detector_name, utility_kind, sampler_kind] = GetParam();
  auto detector = MakeTunedDetector(detector_name);
  ASSERT_NE(detector, nullptr);

  auto grid = testing_util::MakeSpreadGridDataset(/*per_group=*/6);
  PcorEngine engine(grid.dataset, *detector);

  // Not every detector flags the planted row in some context; skip the
  // combination if V is simply not a contextual outlier under it.
  Rng probe(1);
  auto coe = EnumerateCoe(engine.verifier(), grid.v_row);
  ASSERT_TRUE(coe.ok());
  if (coe->empty()) {
    GTEST_SKIP() << detector_name << " finds no context for V";
  }

  PcorOptions options;
  options.sampler = sampler_kind;
  options.utility = utility_kind;
  options.num_samples = 8;
  options.total_epsilon = 0.2;
  options.max_probes = 500'000;

  for (uint64_t seed : {7ull, 8ull, 9ull}) {
    Rng rng(seed);
    auto release = engine.Release(grid.v_row, options, &rng);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    // (a) valid context.
    EXPECT_TRUE(
        engine.verifier().IsOutlierInContext(release->context, grid.v_row));
    // Released context is in COE (the mechanism's support).
    EXPECT_TRUE(std::binary_search(coe->begin(), coe->end(),
                                   release->context));
    // (b) privacy accounting matches the algorithm's theorem.
    EXPECT_NEAR(release->epsilon_spent, 0.2, 1e-9);
    const bool graph_search = sampler_kind == SamplerKind::kDfs ||
                              sampler_kind == SamplerKind::kBfs;
    EXPECT_NEAR(release->epsilon1,
                graph_search ? 0.2 / 18.0 : 0.1, 1e-12);
    // (c) utility is finite and positive for both utility families.
    EXPECT_GT(release->utility_score, 0.0);
  }
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& [detector, utility, sampler] = info.param;
  return detector + "_" + UtilityKindName(utility) + "_" +
         SamplerKindName(sampler);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, PcorSweepTest,
    ::testing::Combine(
        ::testing::Values("zscore", "iqr", "grubbs", "lof"),
        ::testing::Values(UtilityKind::kPopulationSize,
                          UtilityKind::kOverlapWithStart),
        ::testing::Values(SamplerKind::kDirect, SamplerKind::kUniform,
                          SamplerKind::kRandomWalk, SamplerKind::kDfs,
                          SamplerKind::kBfs)),
    SweepName);

// Population monotonicity: adding a predicate to a context never shrinks
// its population — a structural invariant the utility analysis relies on.
class PopulationMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(PopulationMonotonicityTest, AddingAValueNeverShrinksThePopulation) {
  auto grid = testing_util::MakeSpreadGridDataset();
  PopulationIndex index(grid.dataset);
  Rng rng(GetParam());
  const size_t t = grid.dataset.schema().total_values();
  for (int trial = 0; trial < 50; ++trial) {
    ContextVec c(t);
    for (size_t bit = 0; bit < t; ++bit) {
      if (rng.NextBernoulli(0.5)) c.Set(bit);
    }
    const size_t base = index.PopulationCount(c);
    for (size_t bit = 0; bit < t; ++bit) {
      if (c.Test(bit)) continue;
      ContextVec bigger = c;
      bigger.Set(bit);
      EXPECT_GE(index.PopulationCount(bigger), base)
          << c.ToBitString() << " + bit " << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulationMonotonicityTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Serving sweep: the OCDP epsilon-accounting invariants must survive the
// trip through the async front-end — a server-coalesced entry spends
// exactly the configured total, its eps1 matches the derived per-draw
// schedule for the sampler kind, and the per-client ledgers sum to
// (admissions x total), with nothing double- or under-charged by
// coalescing.
class ServerEpsilonSweepTest
    : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(ServerEpsilonSweepTest, CoalescedEntriesKeepTheEpsilonSchedule) {
  const SamplerKind sampler_kind = GetParam();
  auto grid = testing_util::MakeSpreadGridDataset();
  ZscoreDetector detector = testing_util::MakeTestDetector();
  PcorEngine engine(grid.dataset, detector);

  constexpr double kEpsilon = 0.2;
  constexpr size_t kNumSamples = 8;
  ServeOptions options;
  options.release.sampler = sampler_kind;
  options.release.num_samples = kNumSamples;
  options.release.total_epsilon = kEpsilon;
  options.max_batch = 16;  // force coalescing across clients
  options.seed = 99;
  // Everything below queues while the dispatcher is parked on the gate
  // request, so it leaves in batches coalesced across clients.
  testing_util::DispatchGate gate;
  options.pre_batch_hook = gate.Hook();
  PcorServer server(engine, options);
  BatchRequest gate_request;
  gate_request.v_row = grid.v_row;
  auto held = server.SubmitAsync(gate_request, "gate");
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  gate.WaitUntilHeld();

  constexpr size_t kClients = 3;
  constexpr size_t kPerClient = 6;
  std::vector<Future<BatchEntry>> futures;
  for (size_t k = 0; k < kPerClient; ++k) {
    for (size_t c = 0; c < kClients; ++c) {
      BatchRequest request;
      request.v_row = grid.v_row;
      auto future =
          server.SubmitAsync(request, "tenant-" + std::to_string(c));
      ASSERT_TRUE(future.ok()) << future.status().ToString();
      futures.push_back(std::move(*future));
    }
  }

  gate.Open();
  futures.push_back(std::move(*held));

  const double eps1 =
      Epsilon1ForTotal(sampler_kind, kEpsilon, kNumSamples);
  for (auto& future : futures) {
    const BatchEntry entry = future.Get();
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    // epsilon_spent reconstructs from the derived eps1 schedule exactly.
    EXPECT_NEAR(entry.release.epsilon_spent, kEpsilon, 1e-9);
    EXPECT_NEAR(entry.release.epsilon1, eps1, 1e-12);
    EXPECT_NEAR(
        TotalForEpsilon1(sampler_kind, entry.release.epsilon1, kNumSamples),
        entry.release.epsilon_spent, 1e-12);
  }
  server.Shutdown();
  // Sequential composition across the coalesced batches: every tenant's
  // ledger holds exactly (admissions x epsilon).
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_NEAR(server.accountant().SpentBy("tenant-" + std::to_string(c)),
                kPerClient * kEpsilon, 1e-9);
  }
  EXPECT_NEAR(server.accountant().SpentBy("gate"), kEpsilon, 1e-9);
  EXPECT_NEAR(server.stats().epsilon_spent,
              (kClients * kPerClient + 1) * kEpsilon, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Samplers, ServerEpsilonSweepTest,
                         ::testing::Values(SamplerKind::kDirect,
                                           SamplerKind::kUniform,
                                           SamplerKind::kRandomWalk,
                                           SamplerKind::kDfs,
                                           SamplerKind::kBfs),
                         [](const auto& info) {
                           return SamplerKindName(info.param);
                         });

// The BudgetAccountant rejection boundary, end to end through the server:
// with cap == 4 x epsilon, a client gets exactly 4 full-priced releases;
// submission 5+ is rejected with a typed status and no release happens at
// a clipped epsilon.
TEST(ServerBudgetBoundaryTest, CapAdmitsExactlyFloorCapOverEpsilon) {
  auto grid = testing_util::MakeSpreadGridDataset();
  ZscoreDetector detector = testing_util::MakeTestDetector();
  PcorEngine engine(grid.dataset, detector);

  constexpr double kEpsilon = 0.25;
  ServeOptions options;
  options.release.sampler = SamplerKind::kBfs;
  options.release.num_samples = 6;
  options.release.total_epsilon = kEpsilon;
  options.per_client_epsilon_cap = 4 * kEpsilon;
  options.seed = 13;
  PcorServer server(engine, options);

  size_t admitted = 0;
  size_t rejected = 0;
  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 7; ++i) {
    BatchRequest request;
    request.v_row = grid.v_row;
    auto future = server.SubmitAsync(request, "capped");
    if (future.ok()) {
      ++admitted;
      futures.push_back(std::move(*future));
    } else {
      ++rejected;
      // Typed, never silent: the status names the privacy budget.
      EXPECT_TRUE(future.status().IsPrivacyBudgetExceeded())
          << future.status().ToString();
    }
  }
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(rejected, 3u);
  for (auto& future : futures) {
    const BatchEntry entry = future.Get();
    ASSERT_TRUE(entry.status.ok());
    // Every admitted release spent the FULL epsilon — a clipped release
    // would be a silent privacy-accounting lie.
    EXPECT_NEAR(entry.release.epsilon_spent, kEpsilon, 1e-9);
  }
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("capped"), 4 * kEpsilon);
  EXPECT_EQ(server.stats().rejected_budget, 3u);
  // An unrelated client is unaffected by the exhausted tenant.
  BatchRequest request;
  request.v_row = grid.v_row;
  auto other = server.SubmitAsync(request, "fresh");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->Get().status.ok());
}

// Sensitivity sweep: for every detector, removing one non-V row changes a
// context's population by at most one — the Delta-u = 1 argument used in
// every privacy theorem.
TEST(SensitivitySweepTest, PopulationUtilitySensitivityIsOne) {
  auto grid = testing_util::MakeSpreadGridDataset();
  PopulationIndex index(grid.dataset);
  for (uint32_t victim : {0u, 5u, 17u}) {
    auto smaller = grid.dataset.RemoveRows({victim});
    ASSERT_TRUE(smaller.ok());
    PopulationIndex index2(*smaller);
    Rng rng(victim + 1);
    const size_t t = grid.dataset.schema().total_values();
    for (int trial = 0; trial < 30; ++trial) {
      ContextVec c(t);
      for (size_t bit = 0; bit < t; ++bit) {
        if (rng.NextBernoulli(0.5)) c.Set(bit);
      }
      const auto before = static_cast<long>(index.PopulationCount(c));
      const auto after = static_cast<long>(index2.PopulationCount(c));
      EXPECT_LE(std::abs(before - after), 1L);
    }
  }
}

}  // namespace
}  // namespace pcor
