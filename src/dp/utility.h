#pragma once

#include <memory>
#include <string>

#include "src/common/bitvector.h"
#include "src/context/context.h"
#include "src/context/detector_cache.h"

namespace pcor {

/// \brief Utility function u_V(D, C) scoring candidate contexts for an
/// outlier V (Section 3.2). Non-matching contexts must score -infinity so
/// the Exponential mechanism assigns them zero probability (property (a) of
/// Definition 3.2 — the released context is always valid). Sensitivity must
/// stay small (ideally 1) for the privacy bounds to be meaningful.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  virtual std::string name() const = 0;

  /// \brief u_V(D, C); -infinity when f_M(D_C, V) is false.
  virtual double Score(const ContextVec& c, uint32_t v_row) const = 0;

  /// \brief u_V(D, C) for a context the caller has already verified:
  /// f_M(D_C, V) holds and |D_C| = `population`, both from one
  /// OutlierVerifier::OutlierPopulation lookup. The DP-DFS/BFS samplers
  /// score every matching neighbour this way, so a utility that needs only
  /// |D_C| costs no second memo lookup. The default calls Score.
  virtual double ScoreMatch(const ContextVec& c, uint32_t v_row,
                            size_t population) const {
    (void)population;
    return Score(c, v_row);
  }

  /// \brief Delta-u: max change of Score under one record add/remove.
  virtual double sensitivity() const { return 1.0; }
};

/// \brief Population-size utility (Section 3.2.1): u = |D_C| for matching
/// contexts. A larger population indicates a more significant outlier.
/// Sensitivity 1 — one record changes any population by at most 1.
class PopulationSizeUtility : public UtilityFunction {
 public:
  explicit PopulationSizeUtility(const OutlierVerifier& verifier);

  std::string name() const override { return "population_size"; }
  double Score(const ContextVec& c, uint32_t v_row) const override;
  double ScoreMatch(const ContextVec& c, uint32_t v_row,
                    size_t population) const override;

 private:
  const OutlierVerifier* verifier_;
};

/// \brief Overlap utility (Section 3.2.2): u = |D_C ∩ D_{C_V}| for matching
/// contexts, where C_V is a chosen/starting context fixed at construction.
/// Sensitivity 1.
class OverlapUtility : public UtilityFunction {
 public:
  OverlapUtility(const OutlierVerifier& verifier,
                 const ContextVec& starting_context);

  std::string name() const override { return "overlap"; }
  double Score(const ContextVec& c, uint32_t v_row) const override;
  double ScoreMatch(const ContextVec& c, uint32_t v_row,
                    size_t population) const override;

  const ContextVec& starting_context() const { return starting_context_; }

 private:
  const OutlierVerifier* verifier_;
  ContextVec starting_context_;
  BitVector starting_population_;  // precomputed D_{C_V}
};

/// \brief Utility families selectable through PcorOptions.
enum class UtilityKind {
  kPopulationSize,
  kOverlapWithStart,
};

/// \brief Factory: builds the utility for `kind`. For kOverlapWithStart the
/// starting context must be the sampler's C_V.
std::unique_ptr<UtilityFunction> MakeUtility(
    UtilityKind kind, const OutlierVerifier& verifier,
    const ContextVec& starting_context);

/// \brief Stable name for reports.
std::string UtilityKindName(UtilityKind kind);

}  // namespace pcor
