#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/common/logging.h"

namespace pcor {

/// \brief Thrown by Future<T>::Get when its Promise was destroyed without
/// delivering a value — the async analogue of a dangling reference. Get()
/// constructs it on the calling thread, so no exception object ever
/// crosses threads. A served request's failures arrive as values (a
/// BatchEntry's status); this means only that the producer vanished.
class BrokenPromise : public std::runtime_error {
 public:
  BrokenPromise() : std::runtime_error("promise abandoned without a value") {}
};

namespace future_detail {

template <typename T>
struct SharedState {
  std::mutex mu;
  std::condition_variable ready_cv;
  std::optional<T> value;  // empty once ready: the promise was abandoned
  bool ready = false;

  void Deliver(std::optional<T> v) {
    {
      std::unique_lock<std::mutex> lock(mu);
      PCOR_CHECK(!ready) << "promise fulfilled twice";
      value = std::move(v);
      ready = true;
    }
    ready_cv.notify_all();
  }
};

}  // namespace future_detail

/// \brief Single-shot value consumer paired with a Promise<T>.
///
/// Deliberately smaller than std::future: movable, one Get() that blocks
/// and consumes, and timed readiness probing. It carries values only: the
/// serving front-end completes one of these per accepted request, failed
/// or not, with a BatchEntry whose status says how it went.
template <typename T>
class Future {
 public:
  Future() = default;

  // Move-only: Get() consumes, so a copy would either double-move the
  // value or dereference the emptied state after the original's Get().
  Future(Future&&) noexcept = default;
  Future& operator=(Future&&) noexcept = default;
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  bool valid() const { return state_ != nullptr; }

  /// \brief True once a value was delivered or the promise abandoned.
  bool Ready() const {
    PCOR_CHECK(valid()) << "Ready() on an invalid Future";
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->ready;
  }

  /// \brief Blocks until delivery.
  void Wait() const {
    PCOR_CHECK(valid()) << "Wait() on an invalid Future";
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->ready_cv.wait(lock, [this] { return state_->ready; });
  }

  /// \brief Blocks up to `timeout`; true iff the result became ready.
  template <typename Rep, typename Period>
  bool WaitFor(std::chrono::duration<Rep, Period> timeout) const {
    PCOR_CHECK(valid()) << "WaitFor() on an invalid Future";
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->ready_cv.wait_for(lock, timeout,
                                     [this] { return state_->ready; });
  }

  /// \brief Blocks until delivery, then returns the value; throws
  /// BrokenPromise when the promise was abandoned instead. Consumes the
  /// future: valid() is false afterwards.
  T Get() {
    PCOR_CHECK(valid()) << "Get() on an invalid Future";
    std::shared_ptr<future_detail::SharedState<T>> state = std::move(state_);
    std::unique_lock<std::mutex> lock(state->mu);
    state->ready_cv.wait(lock, [&state] { return state->ready; });
    if (!state->value) throw BrokenPromise();
    return std::move(*state->value);
  }

 private:
  template <typename U>
  friend class Promise;
  explicit Future(std::shared_ptr<future_detail::SharedState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<future_detail::SharedState<T>> state_;
};

/// \brief Single-shot value producer. Destroying an unfulfilled promise
/// marks its state abandoned, so the future's Get() throws BrokenPromise
/// instead of blocking forever.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<future_detail::SharedState<T>>()) {}

  Promise(Promise&&) noexcept = default;
  Promise& operator=(Promise&& other) noexcept {
    AbandonIfPending();
    state_ = std::move(other.state_);
    future_taken_ = other.future_taken_;
    return *this;
  }
  Promise(const Promise&) = delete;
  Promise& operator=(const Promise&) = delete;

  ~Promise() { AbandonIfPending(); }

  /// \brief The paired future; may be taken once.
  Future<T> GetFuture() {
    PCOR_CHECK(state_ != nullptr) << "GetFuture() on a moved-from Promise";
    PCOR_CHECK(!future_taken_) << "GetFuture() called twice";
    future_taken_ = true;
    return Future<T>(state_);
  }

  void Set(T value) {
    PCOR_CHECK(state_ != nullptr) << "Set() on a moved-from Promise";
    state_->Deliver(std::move(value));
  }

 private:
  void AbandonIfPending() {
    if (state_ == nullptr) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    const bool pending = !state_->ready;
    lock.unlock();
    if (pending) state_->Deliver(std::nullopt);
    state_.reset();
  }

  std::shared_ptr<future_detail::SharedState<T>> state_;
  bool future_taken_ = false;
};

}  // namespace pcor
