#include "src/common/threading.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/logging.h"
#include "src/common/string_util.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#define PCOR_HAS_AFFINITY 1
#else
#define PCOR_HAS_AFFINITY 0
#endif

namespace pcor {

namespace {

// Parses a sysfs cpulist like "0-3,8,10-11" into CPU ids.
std::vector<int> ParseCpuList(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream ss(list);
  std::string range;
  while (std::getline(ss, range, ',')) {
    if (range.empty()) continue;
    const size_t dash = range.find('-');
    if (dash == std::string::npos) {
      cpus.push_back(static_cast<int>(
          strings::ParseSizeOr(range, static_cast<size_t>(-1))));
    } else {
      const size_t lo = strings::ParseSizeOr(range.substr(0, dash),
                                             static_cast<size_t>(-1));
      const size_t hi = strings::ParseSizeOr(range.substr(dash + 1),
                                             static_cast<size_t>(-1));
      if (lo == static_cast<size_t>(-1) || hi == static_cast<size_t>(-1) ||
          hi < lo) {
        continue;
      }
      for (size_t c = lo; c <= hi; ++c) cpus.push_back(static_cast<int>(c));
    }
  }
  cpus.erase(std::remove(cpus.begin(), cpus.end(), -1), cpus.end());
  return cpus;
}

CpuTopology SingleNodeTopology() {
  CpuTopology topology;
  topology.num_nodes = 1;
  topology.cpus_of_node.resize(1);
  const size_t n = DefaultThreadCount();
  for (size_t c = 0; c < n; ++c) {
    topology.cpus_of_node[0].push_back(static_cast<int>(c));
  }
  return topology;
}

CpuTopology ProbeTopology() {
#if defined(__linux__)
  CpuTopology topology;
  for (size_t node = 0;; ++node) {
    std::ifstream in("/sys/devices/system/node/node" + std::to_string(node) +
                     "/cpulist");
    if (!in.good()) break;
    std::string list;
    std::getline(in, list);
    std::vector<int> cpus = ParseCpuList(list);
    if (cpus.empty()) continue;  // memory-only node: no CPUs to pin to
    topology.cpus_of_node.push_back(std::move(cpus));
  }
  topology.num_nodes = topology.cpus_of_node.size();
  if (topology.num_nodes == 0) return SingleNodeTopology();
  return topology;
#else
  return SingleNodeTopology();
#endif
}

std::mutex g_topology_mu;
CpuTopology g_topology;        // guarded by g_topology_mu
bool g_topology_set = false;   // guarded by g_topology_mu

thread_local int t_numa_node = -1;

#if PCOR_HAS_AFFINITY
// Pins the calling thread to the CPU set of `node`; best-effort (failure
// inside containers with restricted affinity masks is silently ignored —
// placement is an optimization, never a correctness requirement).
void PinSelfToNode(const CpuTopology& topology, size_t node) {
  if (node >= topology.cpus_of_node.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : topology.cpus_of_node[node]) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}
#endif

}  // namespace

const CpuTopology& SystemTopology() {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  if (!g_topology_set) {
    g_topology = ProbeTopology();
    g_topology_set = true;
  }
  return g_topology;
}

void SetTopologyForTest(CpuTopology topology) {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  if (topology.num_nodes == 0) {
    g_topology_set = false;  // next SystemTopology() re-probes the host
    return;
  }
  PCOR_CHECK(topology.cpus_of_node.size() == topology.num_nodes)
      << "CpuTopology node count does not match its CPU lists";
  g_topology = std::move(topology);
  g_topology_set = true;
}

size_t CurrentNumaNode() {
  if (t_numa_node >= 0) return static_cast<size_t>(t_numa_node);
#if PCOR_HAS_AFFINITY
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    const CpuTopology& topology = SystemTopology();
    for (size_t node = 0; node < topology.cpus_of_node.size(); ++node) {
      const auto& cpus = topology.cpus_of_node[node];
      if (std::binary_search(cpus.begin(), cpus.end(), cpu)) return node;
    }
  }
#endif
  return 0;
}

void SetCurrentThreadNumaNode(int node) { t_numa_node = node; }

ThreadPoolOptions DefaultThreadPoolOptions() {
  ThreadPoolOptions options;
  options.pin_to_numa_nodes =
      strings::EnvSizeOr("PCOR_PIN_THREADS", 0) != 0;
  return options;
}

ThreadPool::ThreadPool(size_t num_threads, ThreadPoolOptions options) {
  PCOR_CHECK(num_threads > 0) << "ThreadPool requires at least one thread";
  const CpuTopology& topology = SystemTopology();
  const size_t num_nodes =
      options.pin_to_numa_nodes ? std::max<size_t>(topology.num_nodes, 1) : 1;
  workers_.reserve(num_threads);
  worker_nodes_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    // Round-robin across nodes so every socket gets an even worker share.
    worker_nodes_.push_back(options.pin_to_numa_nodes ? i % num_nodes : 0);
  }
  for (size_t i = 0; i < num_threads; ++i) {
    const bool pin = options.pin_to_numa_nodes && topology.num_nodes > 1;
    workers_.emplace_back([this, i, pin] {
      if (pin) {
#if PCOR_HAS_AFFINITY
        PinSelfToNode(SystemTopology(), worker_nodes_[i]);
#endif
      }
      // Record the association even when the affinity syscall is
      // unavailable, so node-local cache routing still spreads load the
      // way the placement intended.
      SetCurrentThreadNumaNode(static_cast<int>(worker_nodes_[i]));
      WorkerLoop(i);
    });
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

void ThreadPool::WorkerLoop(size_t worker_index) {
  (void)worker_index;
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

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A transient placement-blind pool; the caller is the last thread.
  ThreadPool(num_threads - 1, ThreadPoolOptions{})
      .ParallelFor(n, num_threads, fn);
}

size_t DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace pcor
