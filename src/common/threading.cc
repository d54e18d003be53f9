#include "src/common/threading.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "src/common/logging.h"

namespace pcor {

ThreadPool::ThreadPool(size_t num_threads) {
  PCOR_CHECK(num_threads > 0) << "ThreadPool requires at least one thread";
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    PCOR_CHECK(!shutdown_) << "Submit after shutdown";
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t max_parallel,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (max_parallel == 0) max_parallel = num_threads() + 1;
  // The caller is one of the executing threads; helpers come from the pool.
  const size_t helpers =
      std::min({num_threads(), max_parallel - 1, n - 1});
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  // Helpers that run after the loop already finished claim an index >= n
  // and return before ever dereferencing `fn` — a claimed index < n implies
  // the caller is still blocked below, so the reference stays alive.
  const std::function<void(size_t)>* fn_ptr = &fn;
  auto drain = [state, n, fn_ptr] {
    while (true) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      (*fn_ptr)(i);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };
  for (size_t w = 0; w < helpers; ++w) Submit(drain);
  // Caller participation is the deadlock-freedom argument: even if no
  // worker ever becomes free, this thread drains every index itself.
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) >= n;
  });
}

size_t DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace pcor
