#include "src/dp/utility.h"

#include <limits>
#include <optional>

namespace pcor {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

PopulationSizeUtility::PopulationSizeUtility(const OutlierVerifier& verifier)
    : verifier_(&verifier) {}

double PopulationSizeUtility::Score(const ContextVec& c,
                                    uint32_t v_row) const {
  // f_M already measured |D_C|: the verifier returns it with the verdict.
  const std::optional<size_t> population =
      verifier_->OutlierPopulation(c, v_row);
  return population ? static_cast<double>(*population) : kNegInf;
}

double PopulationSizeUtility::ScoreMatch(const ContextVec&, uint32_t,
                                         size_t population) const {
  return static_cast<double>(population);
}

OverlapUtility::OverlapUtility(const OutlierVerifier& verifier,
                               const ContextVec& starting_context)
    : verifier_(&verifier),
      starting_context_(starting_context),
      starting_population_(verifier.index().PopulationOf(starting_context)) {}

double OverlapUtility::Score(const ContextVec& c, uint32_t v_row) const {
  if (!verifier_->IsOutlierInContext(c, v_row)) return kNegInf;
  return ScoreMatch(c, v_row, 0);
}

double OverlapUtility::ScoreMatch(const ContextVec& c, uint32_t,
                                  size_t) const {
  // Per-thread scratch: Score runs on every probe of every sampler thread,
  // so it must not allocate a fresh |D|-bit population each time.
  thread_local PopulationScratch scratch;
  verifier_->index().PopulationInto(c, &scratch.population,
                                    &scratch.attr_union);
  return static_cast<double>(
      scratch.population.AndCount(starting_population_));
}

std::unique_ptr<UtilityFunction> MakeUtility(
    UtilityKind kind, const OutlierVerifier& verifier,
    const ContextVec& starting_context) {
  switch (kind) {
    case UtilityKind::kPopulationSize:
      return std::make_unique<PopulationSizeUtility>(verifier);
    case UtilityKind::kOverlapWithStart:
      return std::make_unique<OverlapUtility>(verifier, starting_context);
  }
  return nullptr;
}

std::string UtilityKindName(UtilityKind kind) {
  switch (kind) {
    case UtilityKind::kPopulationSize:
      return "population_size";
    case UtilityKind::kOverlapWithStart:
      return "overlap";
  }
  return "unknown";
}

}  // namespace pcor
