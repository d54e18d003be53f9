#include "src/dp/mechanism.h"

#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace pcor {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ExponentialMechanism::ExponentialMechanism(double epsilon1,
                                           double sensitivity)
    : epsilon1_(epsilon1), sensitivity_(sensitivity) {
  PCOR_CHECK(epsilon1 > 0) << "epsilon1 must be positive";
  PCOR_CHECK(sensitivity > 0) << "sensitivity must be positive";
}

Result<size_t> ExponentialMechanism::Choose(const std::vector<double>& scores,
                                            Rng* rng) const {
  if (scores.empty()) {
    return Status::NoValidContext("Exponential mechanism got no candidates");
  }
  const double scale = epsilon1_ / (2.0 * sensitivity_);

  double best = -kInf;
  size_t arg = scores.size();
  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] == -kInf) continue;
    const double key = scale * scores[i] + rng->NextGumbel();
    if (arg == scores.size() || key > best) {
      best = key;
      arg = i;
    }
  }
  if (arg == scores.size()) {
    return Status::NoValidContext(
        "every candidate has -inf utility; nothing valid to release");
  }
  return arg;
}

std::vector<double> ExponentialMechanism::Probabilities(
    const std::vector<double>& scores) const {
  const double scale = epsilon1_ / (2.0 * sensitivity_);
  std::vector<double> logw(scores.size(), -kInf);
  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] != -kInf) logw[i] = scale * scores[i];
  }
  return math::Softmax(logw);
}

}  // namespace pcor
