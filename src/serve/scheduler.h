#pragma once

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/mpmc_queue.h"
#include "src/common/status.h"
#include "src/serve/budget_accountant.h"

namespace pcor {

/// \brief Per-tenant quality-of-service configuration, registered on
/// PcorServer::RegisterTenant. Tenants that never register get weight 1,
/// no per-tenant depth bound, and the server-wide epsilon cap.
struct TenantConfig {
  /// Relative scheduling share: against a saturating competitor, a tenant
  /// receives weight/(sum of active weights) of the dispatch slots. Must be
  /// finite and positive.
  double weight = 1.0;
  /// Bound on this tenant's admitted-but-undispatched requests; pushing
  /// past it is a typed door rejection (kResourceExhausted, refunded) — a
  /// tenant at its depth bound must fail fast, never dig into the shared
  /// capacity by blocking.
  /// 0 means no per-tenant bound (the global queue_capacity still applies).
  size_t max_queue_depth = 0;
  /// Per-tenant override of ServeOptions::per_client_epsilon_cap; nullopt
  /// inherits the server-wide default.
  std::optional<double> epsilon_cap;
};

/// \brief Rejects non-finite/non-positive weights and negative/NaN epsilon
/// caps with kInvalidArgument; OK otherwise.
Status ValidateTenantConfig(const TenantConfig& config);

/// \brief Bounded multi-producer single-consumer admission queue with
/// per-tenant sub-queues picked in deficit round robin order. The serving
/// dispatcher pops; many client threads push.
///
/// Semantics mirror BoundedMpmcQueue: Push blocks while the *global*
/// capacity is exhausted, and Close() wakes blocked pushers with kClosed
/// and lets pops drain every accepted element before reporting kClosed.
/// The one addition is the per-tenant depth bound: a push for a tenant at
/// its max_queue_depth returns kTenantFull immediately (never blocks), so
/// one tenant's backlog is surfaced to that tenant alone.
///
/// Fairness: each tenant owns a FIFO deque and pops are picked by deficit
/// round robin — on reaching the front of the active list a tenant's
/// deficit grows by its weight and it is served while its credit covers
/// the cost attached to its front request (default 1, i.e. one request per
/// unit of deficit). Pushers may charge a request's epsilon as its cost,
/// making the fair share hold in privacy budget per second rather than
/// requests per second. Requests of one tenant never reorder relative to
/// each other.
///
/// Thread-safe. Tenant registration may interleave with pushes; a weight
/// update applies from the tenant's next scheduling round.
template <typename T>
class WeightedFairQueue {
 public:
  explicit WeightedFairQueue(size_t global_capacity)
      : capacity_(global_capacity) {
    PCOR_CHECK(global_capacity > 0) << "queue capacity must be positive";
  }

  WeightedFairQueue(const WeightedFairQueue&) = delete;
  WeightedFairQueue& operator=(const WeightedFairQueue&) = delete;

  /// \brief Creates or updates tenant `id`. `weight` must be positive and
  /// finite (checked by the caller via ValidateTenantConfig; enforced here
  /// with a CHECK). `max_depth` 0 disables the per-tenant bound.
  void RegisterTenant(std::string_view id, double weight, size_t max_depth) {
    PCOR_CHECK(weight > 0.0) << "tenant weight must be positive";
    std::unique_lock<std::mutex> lock(mu_);
    Tenant* tenant = FindOrCreateLocked(id);
    tenant->weight = weight;
    tenant->max_depth = max_depth;
  }

  /// \brief Blocking push: waits while the global capacity is exhausted.
  /// Returns kOk, kTenantFull (depth bound, immediate), or kClosed.
  /// `cost` is the DRR service charge for this request (positive, finite;
  /// default 1 = classic per-request fairness). The server charges each
  /// request's total epsilon so the weighted shares hold in privacy budget
  /// rather than request count.
  QueueOp Push(std::string_view tenant_id, T item, double cost = 1.0) {
    PCOR_CHECK(std::isfinite(cost) && cost > 0.0)
        << "request cost must be positive and finite";
    std::unique_lock<std::mutex> lock(mu_);
    Tenant* tenant = FindOrCreateLocked(tenant_id);
    while (true) {
      if (closed_) return QueueOp::kClosed;
      if (tenant->max_depth > 0 && tenant->items.size() >= tenant->max_depth) {
        return QueueOp::kTenantFull;
      }
      if (size_ < capacity_) break;
      not_full_.wait(lock);
    }
    PushLocked(tenant, std::move(item), cost);
    lock.unlock();
    not_empty_.notify_one();
    return QueueOp::kOk;
  }

  /// \brief Blocks until an element is available or the queue is closed
  /// *and* drained.
  QueueOp Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    return PopLocked(out, &lock);
  }

  /// \brief Non-blocking pop in the same pick order as Pop: kEmpty on an
  /// open empty queue, kClosed once closed and drained.
  QueueOp TryPop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (size_ == 0) return closed_ ? QueueOp::kClosed : QueueOp::kEmpty;
    return PopLocked(out, &lock);
  }

  /// \brief Closes the queue: wakes every waiter, fails future pushes,
  /// lets pops drain the remaining elements. Idempotent.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::unique_lock<std::mutex> lock(mu_);
    return size_;
  }
  size_t capacity() const { return capacity_; }
  /// \brief Peak number of queued elements since construction, recorded
  /// under the queue mutex at each push, so it is exact and never exceeds
  /// capacity().
  size_t high_water() const {
    std::unique_lock<std::mutex> lock(mu_);
    return high_water_;
  }
  bool closed() const {
    std::unique_lock<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  /// A queued request with its DRR service charge.
  struct Entry {
    T item;
    double cost = 1.0;
  };

  struct Tenant {
    std::string id;
    double weight = 1.0;
    size_t max_depth = 0;
    std::deque<Entry> items;
    /// DRR state: accumulated service credit, grown by `weight` per round.
    double deficit = 0.0;
    bool active = false;  ///< present in active_
  };

  // Tenants are heap-allocated so Tenant* stays stable across rehashes of
  // the index and growth of tenants_.
  Tenant* FindOrCreateLocked(std::string_view id) {
    auto it = index_.find(id);
    if (it != index_.end()) return tenants_[it->second].get();
    tenants_.push_back(std::make_unique<Tenant>());
    Tenant* tenant = tenants_.back().get();
    tenant->id = std::string(id);
    index_.emplace(tenant->id, tenants_.size() - 1);
    return tenant;
  }

  void PushLocked(Tenant* tenant, T item, double cost) {
    tenant->items.push_back(Entry{std::move(item), cost});
    high_water_ = std::max(high_water_, ++size_);
    if (!tenant->active) {
      // A newly active tenant joins the round with zero credit — classic
      // DRR: going idle forfeits any banked deficit, so a tenant cannot
      // save up credit while inactive and later burst past its share.
      tenant->active = true;
      tenant->deficit = 0.0;
      active_.push_back(tenant);
    }
  }

  // Precondition: lock held and (closed_ || size_ > 0).
  QueueOp PopLocked(T* out, std::unique_lock<std::mutex>* lock) {
    if (size_ == 0) return QueueOp::kClosed;
    PopWeightedFairLocked(out);
    --size_;
    lock->unlock();
    not_full_.notify_one();
    return QueueOp::kOk;
  }

  // Deficit round robin: the front tenant of the active list is served
  // while its credit covers its front request's cost; when its credit runs
  // out it rotates to the back, earning `weight` more on its next visit —
  // a weight-0.25 tenant with unit costs is served once every four rounds
  // rather than never. When a whole rotation passes without a serve (every
  // active tenant's next request costs more than it earns per round), the
  // remaining rounds are granted in one arithmetic step instead of
  // iterated, so a pathologically small — but valid — weight (say 1e-9 as
  // the only backlogged tenant) or an expensive front request cannot spin
  // this loop a billion times under mu_ and stall every submitter. Cost is
  // O(active tenants) per pop in the worst case.
  void PopWeightedFairLocked(T* out) {
    size_t rotations = 0;
    while (true) {
      PCOR_CHECK(!active_.empty()) << "size_ > 0 with no active tenant";
      Tenant* tenant = active_.front();
      const double cost = tenant->items.front().cost;
      if (tenant->deficit < cost) {
        if (rotations >= active_.size()) {
          // Everyone earned a quantum this rotation and still cannot
          // afford its front request. Advance r whole rounds at once, r
          // chosen so the first tenant to afford its request gets there.
          double rounds = std::numeric_limits<double>::infinity();
          for (Tenant* t : active_) {
            rounds = std::min(
                rounds, std::ceil((t->items.front().cost - t->deficit) /
                                  t->weight));
          }
          rounds = std::max(1.0, rounds);
          for (Tenant* t : active_) t->deficit += rounds * t->weight;
          rotations = 0;
          continue;
        }
        tenant->deficit += tenant->weight;
        if (tenant->deficit < cost) {
          active_.pop_front();
          active_.push_back(tenant);
          ++rotations;
          continue;
        }
      }
      tenant->deficit -= cost;
      *out = std::move(tenant->items.front().item);
      tenant->items.pop_front();
      if (tenant->items.empty()) {
        active_.pop_front();
        tenant->active = false;
        tenant->deficit = 0.0;
      } else if (tenant->deficit < tenant->items.front().cost) {
        // Credit exhausted with work left: yield the front — staying put
        // would re-earn a quantum on the next pop and starve the round.
        active_.pop_front();
        active_.push_back(tenant);
      }
      return;
    }
  }

  const size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  ClientMap<size_t> index_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::deque<Tenant*> active_;  ///< tenants with pending items
  size_t size_ = 0;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace pcor
