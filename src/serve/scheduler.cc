#include "src/serve/scheduler.h"

#include <cmath>

#include "src/common/string_util.h"

namespace pcor {

Status ValidateTenantConfig(const TenantConfig& config) {
  if (!std::isfinite(config.weight) || config.weight <= 0.0) {
    return Status::InvalidArgument(strings::Format(
        "tenant weight must be finite and positive, got %g", config.weight));
  }
  if (config.epsilon_cap.has_value() &&
      (std::isnan(*config.epsilon_cap) || *config.epsilon_cap < 0.0)) {
    return Status::InvalidArgument(strings::Format(
        "tenant epsilon_cap must be non-negative, got %g",
        *config.epsilon_cap));
  }
  return Status::OK();
}

}  // namespace pcor
