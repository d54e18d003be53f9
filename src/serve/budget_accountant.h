#pragma once

#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/status.h"

namespace pcor {

/// \brief Transparent hash for string-keyed maps on the serving hot path:
/// lets every lookup take a string_view without materializing a
/// std::string (only first-contact insertion allocates).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename V>
using ClientMap = std::unordered_map<std::string, V, TransparentStringHash,
                                     std::equal_to<>>;

/// \brief Per-client OCDP budget ledger for the serving front-end.
///
/// Every client (tenant) gets the default epsilon cap unless SetCap
/// installed a per-client override; each admitted release charges its
/// total_epsilon against the submitting client's ledger under sequential
/// composition, and a submission that would push the ledger past the cap
/// is rejected with a typed kPrivacyBudgetExceeded status — never silently
/// clipped to the remaining budget.
///
/// Charging happens at admission (before the release runs): a release that
/// later fails server-side (e.g. NoValidContext) keeps its charge, because
/// the search still consumed the data — refunding it would let a client
/// probe for free by submitting rows it knows cannot release. The one
/// exception is a request rejected *at the door* (queue full, shutdown):
/// no computation touched the data, so the server refunds those.
///
/// Thread-safe; many client threads charge concurrently.
class BudgetAccountant {
 public:
  /// \brief `per_client_cap` in epsilon; infinity disables enforcement.
  explicit BudgetAccountant(
      double per_client_cap = std::numeric_limits<double>::infinity());

  /// \brief Charges `epsilon` to `client_id`, or rejects with
  /// kPrivacyBudgetExceeded (charging nothing) if spent + epsilon would
  /// exceed the client's cap beyond a tiny relative tolerance (so a cap
  /// that is an exact multiple of the per-release cost admits exactly that
  /// many). A negative or non-finite `epsilon` is rejected with
  /// kInvalidArgument, charging nothing. Thread-safe; never blocks beyond
  /// the internal mutex.
  Status Charge(std::string_view client_id, double epsilon);

  /// \brief Returns `epsilon` to `client_id`'s ledger; only for admissions
  /// rolled back before any computation ran (see class comment). Clamps at
  /// zero; refunding an unknown client or a non-finite `epsilon` is a
  /// no-op.
  void Refund(std::string_view client_id, double epsilon);

  /// \brief Installs a per-client cap override; subsequent Charge calls
  /// for `client_id` enforce `cap` instead of the default. Already-charged
  /// epsilon is never clawed back — lowering a cap below a client's spend
  /// merely rejects everything further. The server applies this when a
  /// tenant registers with TenantConfig::epsilon_cap set.
  void SetCap(std::string_view client_id, double cap);

  /// \brief Removes `client_id`'s cap override, restoring the default
  /// cap; a no-op for clients without one. The server applies this when a
  /// tenant re-registers with TenantConfig::epsilon_cap unset.
  void ClearCap(std::string_view client_id);

  /// \brief The cap Charge enforces for `client_id` (the default unless a
  /// SetCap override exists).
  double CapFor(std::string_view client_id) const;

  /// \brief Cumulative epsilon charged to `client_id` (0 for strangers).
  double SpentBy(std::string_view client_id) const;

  /// \brief Sum of every client's ledger.
  double TotalSpent() const;

  /// \brief The default cap (clients without a SetCap override).
  double cap() const { return cap_; }
  size_t num_clients() const;

 private:
  double CapForLocked(std::string_view client_id) const;

  const double cap_;
  mutable std::mutex mu_;
  ClientMap<double> spent_;
  ClientMap<double> cap_overrides_;
};

}  // namespace pcor
