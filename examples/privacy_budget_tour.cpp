// Privacy budget tour: how the OCDP budget splits across the five release
// algorithms, what one release costs, and how the exponential mechanism's
// selection sharpens as epsilon grows. Uses a small synthetic dataset so it
// runs in seconds.
//
//   ./build/examples/privacy_budget_tour
#include <cstdio>

#include "src/dp/mechanism.h"
#include "src/exp/workloads.h"
#include "src/outlier/iqr.h"
#include "src/search/pcor.h"
#include "src/serve/budget_accountant.h"

using namespace pcor;

int main() {
  std::printf("== 1. Budget accounting per algorithm (n = 50 samples) ==\n");
  std::printf("%-12s %-28s %s\n", "algorithm", "theorem", "eps1 at eps=0.2");
  struct RowSpec {
    SamplerKind kind;
    const char* theorem;
  };
  const RowSpec specs[] = {
      {SamplerKind::kDirect, "Thm 4.1: eps = 2*eps1"},
      {SamplerKind::kUniform, "Thm 5.1: eps = 2*eps1"},
      {SamplerKind::kRandomWalk, "Thm 5.3: eps = 2*eps1"},
      {SamplerKind::kDfs, "Thm 5.5: eps = (2n+2)*eps1"},
      {SamplerKind::kBfs, "Thm 5.7: eps = (2n+2)*eps1"},
  };
  for (const auto& spec : specs) {
    std::printf("%-12s %-28s %.5f\n", SamplerKindName(spec.kind).c_str(),
                spec.theorem, Epsilon1ForTotal(spec.kind, 0.2, 50));
  }

  std::printf("\n== 2. Epsilon sharpens the exponential mechanism ==\n");
  std::vector<double> scores{100, 200, 300, 400, 500};
  for (double eps1 : {0.001, 0.01, 0.1}) {
    ExponentialMechanism mech(eps1, 1.0);
    auto p = mech.Probabilities(scores);
    std::printf("eps1 = %-6g -> Pr[max-score context] = %.3f\n", eps1,
                p.back());
  }

  std::printf("\n== 3. A full release under a fixed owner budget ==\n");
  auto workload = MakeReducedSalaryWorkload(/*scale=*/0.1);
  workload.status().CheckOK();
  IqrOptions iqr;
  iqr.min_population = 12;
  IqrDetector detector(iqr);
  PcorEngine engine(workload->data.dataset, detector);
  Rng rng(3);
  auto outliers = SelectQueryOutliers(
      engine.verifier(), workload->data.planted_outlier_rows, 3, &rng);

  // One ledger entry for the data owner. A release is charged before it
  // runs and keeps its charge if it fails, as in the serving front-end.
  BudgetAccountant budget(/*per_client_cap=*/0.5);
  const char* const kOwner = "owner";
  size_t charged = 0;
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 20;
  options.total_epsilon = 0.2;
  for (uint32_t row : outliers) {
    const Status admitted = budget.Charge(kOwner, options.total_epsilon);
    if (admitted.IsPrivacyBudgetExceeded()) {
      std::printf("budget exhausted after %zu releases — refusing more.\n",
                  charged);
      break;
    }
    admitted.CheckOK();
    ++charged;
    auto release = engine.Release(row, options, &rng);
    if (!release.ok()) continue;
    std::printf("released |D_C| = %.0f for row %u (spent %.2f / %.2f)\n",
                release->utility_score, row, budget.SpentBy(kOwner),
                budget.cap());
  }

  std::printf("final budget: %.2f spent of %.2f across %zu releases\n",
              budget.SpentBy(kOwner), budget.cap(), charged);
  return 0;
}
