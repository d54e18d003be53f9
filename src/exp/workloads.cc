#include "src/exp/workloads.h"

#include <algorithm>

#include "src/context/starting_context.h"
#include "src/data/homicide_generator.h"
#include "src/data/salary_generator.h"

namespace pcor {

namespace {

size_t Scaled(size_t rows, double scale) {
  if (scale >= 1.0) return rows;
  const double scaled = static_cast<double>(rows) * std::max(scale, 0.0);
  return std::max<size_t>(500, static_cast<size_t>(scaled));
}

}  // namespace

Result<Workload> MakeReducedSalaryWorkload(double scale) {
  SalaryDatasetSpec spec = ReducedSalarySpec();
  spec.num_rows = Scaled(spec.num_rows, scale);
  spec.num_planted = std::max<size_t>(20, spec.num_planted * spec.num_rows /
                                              ReducedSalarySpec().num_rows);
  PCOR_ASSIGN_OR_RETURN(GeneratedData data, GenerateSalaryDataset(spec));
  return Workload{"salary_reduced", std::move(data)};
}

Result<Workload> MakeFullSalaryWorkload(double scale) {
  SalaryDatasetSpec spec = FullSalarySpec();
  spec.num_rows = Scaled(spec.num_rows, scale);
  spec.num_planted = std::max<size_t>(20, spec.num_planted * spec.num_rows /
                                              FullSalarySpec().num_rows);
  PCOR_ASSIGN_OR_RETURN(GeneratedData data, GenerateSalaryDataset(spec));
  return Workload{"salary_full", std::move(data)};
}

Result<Workload> MakeReducedHomicideWorkload(double scale) {
  HomicideDatasetSpec spec = ReducedHomicideSpec();
  spec.num_rows = Scaled(spec.num_rows, scale);
  spec.num_planted =
      std::max<size_t>(20, spec.num_planted * spec.num_rows /
                               ReducedHomicideSpec().num_rows);
  PCOR_ASSIGN_OR_RETURN(GeneratedData data, GenerateHomicideDataset(spec));
  return Workload{"homicide_reduced", std::move(data)};
}

Result<Workload> MakeFullHomicideWorkload(double scale) {
  HomicideDatasetSpec spec = FullHomicideSpec();
  spec.num_rows = Scaled(spec.num_rows, scale);
  spec.num_planted =
      std::max<size_t>(20, spec.num_planted * spec.num_rows /
                               FullHomicideSpec().num_rows);
  PCOR_ASSIGN_OR_RETURN(GeneratedData data, GenerateHomicideDataset(spec));
  return Workload{"homicide_full", std::move(data)};
}

std::vector<uint32_t> SelectQueryOutliers(
    const OutlierVerifier& verifier,
    const std::vector<uint32_t>& candidates, size_t max_outliers, Rng* rng) {
  std::vector<uint32_t> shuffled = candidates;
  rng->Shuffle(&shuffled);
  StartingContextOptions options;  // no fields: the start search is fixed
  std::vector<uint32_t> selected;
  for (uint32_t row : shuffled) {
    if (selected.size() >= max_outliers) break;
    Rng probe = rng->Fork();
    auto start = FindStartingContext(verifier, row, options, &probe);
    if (start.ok()) selected.push_back(row);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

}  // namespace pcor
