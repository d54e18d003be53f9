#include "src/serve/budget_accountant.h"

#include <algorithm>
#include <cmath>

#include "src/common/string_util.h"

namespace pcor {

namespace {
// Admission tolerance: floating accumulation of k identical charges can
// land a hair above k * epsilon, and a cap set to exactly k * epsilon must
// still admit all k. One part in 2^40 dwarfs any realistic accumulation
// error while staying far below a meaningful epsilon difference.
constexpr double kRelTolerance = 1e-12;
}  // namespace

BudgetAccountant::BudgetAccountant(double per_client_cap)
    : cap_(per_client_cap) {}

Status BudgetAccountant::Charge(std::string_view client_id, double epsilon) {
  // NaN fails every comparison, so `epsilon < 0` alone would admit it and
  // poison the ledger: a NaN spend never exceeds any cap again.
  if (!std::isfinite(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument(strings::Format(
        "epsilon charge must be finite and non-negative, got %g", epsilon));
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto it = spent_.find(client_id);
  if (it == spent_.end()) {
    it = spent_.emplace(std::string(client_id), 0.0).first;
  }
  double& spent = it->second;
  const double cap = CapForLocked(client_id);
  const double after = spent + epsilon;
  if (after > cap + kRelTolerance * std::max(1.0, cap)) {
    return Status::PrivacyBudgetExceeded(strings::Format(
        "client '%.*s': spent %.6g + requested %.6g exceeds cap %.6g",
        static_cast<int>(client_id.size()), client_id.data(), spent, epsilon,
        cap));
  }
  spent = after;
  return Status::OK();
}

void BudgetAccountant::SetCap(std::string_view client_id, double cap) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = cap_overrides_.find(client_id);
  if (it == cap_overrides_.end()) {
    cap_overrides_.emplace(std::string(client_id), cap);
  } else {
    it->second = cap;
  }
}

void BudgetAccountant::ClearCap(std::string_view client_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = cap_overrides_.find(client_id);
  if (it != cap_overrides_.end()) cap_overrides_.erase(it);
}

double BudgetAccountant::CapFor(std::string_view client_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  return CapForLocked(client_id);
}

double BudgetAccountant::CapForLocked(std::string_view client_id) const {
  auto it = cap_overrides_.find(client_id);
  return it == cap_overrides_.end() ? cap_ : it->second;
}

void BudgetAccountant::Refund(std::string_view client_id, double epsilon) {
  if (!std::isfinite(epsilon)) return;  // Charge never admitted one
  std::unique_lock<std::mutex> lock(mu_);
  auto it = spent_.find(client_id);
  if (it == spent_.end()) return;
  it->second = std::max(0.0, it->second - epsilon);
}

double BudgetAccountant::SpentBy(std::string_view client_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = spent_.find(client_id);
  return it == spent_.end() ? 0.0 : it->second;
}

double BudgetAccountant::TotalSpent() const {
  std::unique_lock<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& [client, spent] : spent_) total += spent;
  return total;
}

size_t BudgetAccountant::num_clients() const {
  std::unique_lock<std::mutex> lock(mu_);
  return spent_.size();
}

}  // namespace pcor
