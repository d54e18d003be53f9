#pragma once

#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"

namespace pcor {

/// \brief The Exponential mechanism of McSherry-Talwar (Definition 2.3):
/// choose candidate r with probability proportional to
/// exp(eps1 * u(D, r) / (2 * sensitivity)).
///
/// Choose samples with the Gumbel-max trick: argmax_i (eps1*u_i/(2*sens) +
/// Gumbel_i), exactly the Exponential mechanism's distribution and
/// numerically robust for widely spread scores. Candidates with score
/// -infinity (the paper's encoding of non-valid contexts) have exactly zero
/// probability. By Theorem 2.1 a draw from this
/// mechanism is (2 * eps1 * sensitivity)-differentially private; the budget
/// accounting in dp/budget.h builds on that.
class ExponentialMechanism {
 public:
  ExponentialMechanism(double epsilon1, double sensitivity);

  /// \brief Draws one index from `scores`. Fails with NoValidContext when
  /// every score is -infinity or the vector is empty.
  Result<size_t> Choose(const std::vector<double>& scores, Rng* rng) const;

  /// \brief Exact selection probabilities (softmax of eps1*u/(2*sens)).
  /// Used by tests and by the empirical OCDP experiments of Section 6.7.
  std::vector<double> Probabilities(const std::vector<double>& scores) const;

  double epsilon1() const { return epsilon1_; }
  double sensitivity() const { return sensitivity_; }

  /// \brief Privacy cost of one draw: 2 * eps1 * sensitivity (Theorem 2.1).
  double EpsilonPerDraw() const { return 2.0 * epsilon1_ * sensitivity_; }

 private:
  double epsilon1_;
  double sensitivity_;
};

}  // namespace pcor
