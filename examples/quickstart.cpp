// Quickstart: private contextual outlier release on the paper's running
// example — a tiny income table over {Jobtitle, City, District} (Table 1).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "src/outlier/zscore.h"
#include "src/search/pcor.h"
#include "src/serve/budget_accountant.h"

using namespace pcor;

int main() {
  // 1. Schema. Domains list *all* possible values, per Section 4 of the
  //    paper — including values that may not occur in the data.
  Schema schema;
  schema.AddAttribute("Jobtitle", {"CEO", "MedicalDoctor", "Lawyer"})
      .CheckOK();
  schema.AddAttribute("City", {"Montreal", "Ottawa", "Toronto"}).CheckOK();
  schema.AddAttribute("District", {"Business", "Historic", "Diplomatic"})
      .CheckOK();
  schema.SetMetricName("Salary");

  // 2. Data, shaped after Table 1, replicated so populations are large
  //    enough for the detector, plus one record (the "Lawyer in Ottawa's
  //    Diplomatic district") whose salary is extreme within its context.
  Dataset dataset(schema);
  struct Template {
    const char* job;
    const char* city;
    const char* district;
    double salary;
  };
  const Template rows[] = {
      {"MedicalDoctor", "Montreal", "Business", 140000},
      {"Lawyer", "Toronto", "Business", 150000},
      {"CEO", "Ottawa", "Diplomatic", 250000},
      {"Lawyer", "Toronto", "Business", 152000},
      {"Lawyer", "Ottawa", "Diplomatic", 149000},
      {"MedicalDoctor", "Toronto", "Historic", 160000},
      {"Lawyer", "Ottawa", "Business", 151000},
      {"CEO", "Montreal", "Historic", 240000},
      {"MedicalDoctor", "Toronto", "Diplomatic", 158000},
  };
  for (int copy = 0; copy < 8; ++copy) {
    for (const auto& r : rows) {
      double jitter = 1000.0 * ((copy * 7) % 5);
      dataset
          .AppendRowByName({r.job, r.city, r.district}, r.salary + jitter)
          .CheckOK();
    }
  }
  // Record 8 of Table 1: a Lawyer in Ottawa's Diplomatic district with a
  // salary that is normal globally (less than every CEO) but an outlier
  // among Diplomatic-district lawyers.
  dataset.AppendRowByName({"Lawyer", "Ottawa", "Diplomatic"}, 230000.0)
      .CheckOK();
  const uint32_t v_row = static_cast<uint32_t>(dataset.num_rows() - 1);

  // 3. Detector + engine. Any deterministic detector plugs in; we use
  //    z-score here for a transparent quickstart.
  ZscoreOptions zopts;
  zopts.threshold = 2.5;
  zopts.min_population = 6;
  ZscoreDetector detector(zopts);
  PcorEngine engine(dataset, detector);

  // 4. The owner's privacy budget. Releases compose sequentially, so each
  //    is charged its total epsilon before it runs, and the charge stays
  //    even if the release fails, as in the serving front-end.
  BudgetAccountant budget(/*per_client_cap=*/0.5);
  const char* const kOwner = "owner";

  // 5. One private release: BFS sampling (the paper's final choice),
  //    population-size utility, total OCDP budget eps = 0.2.
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 20;
  options.total_epsilon = 0.2;

  budget.Charge(kOwner, options.total_epsilon).CheckOK();
  Rng rng(2021);
  auto release = engine.Release(v_row, options, &rng);
  if (!release.ok()) {
    std::printf("release failed: %s\n", release.status().ToString().c_str());
    return 1;
  }

  std::printf("query record : %s\n", dataset.DescribeRow(v_row).c_str());
  std::printf("released context (eps = %.3g, eps1 = %.4g):\n  %s\n",
              release->epsilon_spent, release->epsilon1,
              release->description.c_str());
  std::printf("context population: %.0f records\n", release->utility_score);
  std::printf("candidates sampled: %zu, detector runs: %zu\n",
              release->num_candidates, release->f_evaluations);

  // 6. Composition: a second release for the same dataset must fit in
  //    what is left of the owner's budget.
  const double spent = budget.SpentBy(kOwner);
  std::printf("privacy budget: spent %.2f of %.2f (%.2f left)\n", spent,
              budget.cap(), budget.cap() - spent);
  return 0;
}
