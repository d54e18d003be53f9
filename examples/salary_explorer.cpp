// Salary explorer: the paper's headline workload. Generates the synthetic
// Ontario-like salary dataset, finds contextual outliers with LOF, and
// privately releases a high-population explanation context for each,
// tracking the cumulative privacy budget.
//
//   ./build/examples/salary_explorer [num_outliers]
#include <cstdio>
#include <cstdlib>

#include "src/common/string_util.h"
#include "src/exp/workloads.h"
#include "src/outlier/lof.h"
#include "src/search/pcor.h"
#include "src/serve/budget_accountant.h"

using namespace pcor;

int main(int argc, char** argv) {
  const size_t num_outliers =
      argc > 1 ? strings::ParseSizeOr(argv[1], 3) : 3;

  std::printf("generating reduced salary dataset (paper Section 6.1)...\n");
  auto workload = MakeReducedSalaryWorkload(/*scale=*/0.25);
  if (!workload.ok()) {
    std::printf("%s\n", workload.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = workload->data.dataset;
  std::printf("  %zu records, %zu attributes, t = %zu attribute values\n",
              dataset.num_rows(), dataset.num_attributes(),
              dataset.schema().total_values());

  LofOptions lof;
  lof.k = 10;
  LofDetector detector(lof);
  PcorEngine engine(dataset, detector);

  Rng rng(7);
  auto outliers = SelectQueryOutliers(
      engine.verifier(), workload->data.planted_outlier_rows, num_outliers,
      &rng);
  std::printf("verified %zu contextual outliers to explain\n\n",
              outliers.size());

  PcorOptions options;
  options.sampler = SamplerKind::kBfs;  // the paper's final choice
  options.num_samples = 30;
  options.total_epsilon = 0.2;

  // Each release is charged before it runs; a failed release keeps its
  // charge, because its status still tells something about the data.
  BudgetAccountant budget(/*per_client_cap=*/1.0);
  const char* const kOwner = "owner";
  size_t released = 0;
  for (uint32_t row : outliers) {
    const Status charged = budget.Charge(kOwner, options.total_epsilon);
    if (charged.IsPrivacyBudgetExceeded()) {
      std::printf("privacy budget exhausted; stopping releases.\n");
      break;
    }
    charged.CheckOK();
    auto release = engine.Release(row, options, &rng);
    if (!release.ok()) {
      std::printf("row %u: %s\n", row, release.status().ToString().c_str());
      continue;
    }
    ++released;
    std::printf("outlier: %s\n", dataset.DescribeRow(row).c_str());
    std::printf("  context : %s\n", release->description.c_str());
    std::printf("  |D_C|   : %.0f of %zu records\n", release->utility_score,
                dataset.num_rows());
    std::printf("  privacy : eps %.3g spent, %.3g budget left\n\n",
                release->epsilon_spent,
                budget.cap() - budget.SpentBy(kOwner));
  }
  std::printf("total releases: %zu, total epsilon: %.3g\n", released,
              budget.SpentBy(kOwner));
  return 0;
}
