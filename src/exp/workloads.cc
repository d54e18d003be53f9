#include "src/exp/workloads.h"

#include <algorithm>

#include "src/common/threading.h"
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
  ThreadPool* pool = verifier.index().probe_pool();
  StartingContextOptions options;  // no fields: the start search is fixed
  std::vector<uint32_t> selected;
  size_t next = 0;
  // A wave never holds more candidates than the quota has room for, so
  // the serial loop (fork, search, stop at the quota) would have searched
  // every one of them, with these streams, in this order.
  while (next < shuffled.size() && selected.size() < max_outliers) {
    const size_t wave = std::min(shuffled.size() - next,
                                 max_outliers - selected.size());
    std::vector<Rng> streams;
    for (size_t i = 0; i < wave; ++i) streams.push_back(rng->Fork());
    std::vector<char> valid(wave, 0);  // not vector<bool>: a slot per thread
    const auto search = [&](size_t i) {
      valid[i] = FindStartingContext(verifier, shuffled[next + i], options,
                                     &streams[i])
                     .ok();
    };
    if (pool == nullptr) {
      for (size_t i = 0; i < wave; ++i) search(i);
    } else {
      pool->ParallelFor(wave, /*max_parallel=*/0, search);
    }
    for (size_t i = 0; i < wave; ++i) {
      if (valid[i]) selected.push_back(shuffled[next + i]);
    }
    next += wave;
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

}  // namespace pcor
