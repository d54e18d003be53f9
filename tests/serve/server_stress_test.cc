// Failure-path hardening for the serving front-end: shutdown with pending
// work (drain and abort), submitters blocked on a full queue, exception
// propagation through futures, admission after shutdown, the charge a
// failed release keeps, the queue high-water mark, and requests at the
// extremes admission lets through.
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "src/search/streaming.h"
#include "src/serve/server.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using std::chrono::milliseconds;

class ServerStressTest : public ::testing::Test {
 protected:
  ServerStressTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  ServeOptions BaseOptions() const {
    ServeOptions options;
    options.release.sampler = SamplerKind::kBfs;
    options.release.num_samples = 6;
    options.release.total_epsilon = 0.2;
    options.seed = 7;
    return options;
  }

  BatchRequest OutlierRequest() const {
    BatchRequest request;
    request.v_row = grid_.v_row;
    return request;
  }

  // Parks the dispatcher inside `gate` on one request from the "gate"
  // tenant; everything submitted afterwards stays queued until Open().
  Future<BatchEntry> HoldDispatcher(PcorServer* server,
                                    testing_util::DispatchGate* gate) const {
    Future<BatchEntry> held =
        std::move(server->SubmitAsync(OutlierRequest(), "gate")).value();
    gate->WaitUntilHeld();
    return held;
  }

  // Opens `gate` once Shutdown has landed on `server`. The probe tenant's
  // zero cap means its submissions are refused for budget while the
  // server is open and with kUnavailable once it is shutting down — never
  // admitted either way. Shutdown sets the abort flag under the same lock
  // the probe reads, so the kUnavailable return proves the flag is set.
  void OpenAfterShutdownLands(PcorServer* server,
                              testing_util::DispatchGate* gate) const {
    while (true) {
      auto probe = server->SubmitAsync(OutlierRequest(), "probe");
      if (probe.status().IsUnavailable()) break;
      std::this_thread::yield();
    }
    gate->Open();
  }

  static void RegisterProbe(PcorServer* server) {
    TenantConfig probe;
    probe.epsilon_cap = 0.0;
    ASSERT_TRUE(server->RegisterTenant("probe", probe).ok());
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

TEST_F(ServerStressTest, ShutdownDrainCompletesPendingWork) {
  testing_util::DispatchGate gate;
  ServeOptions options = BaseOptions();
  // The dispatcher is parked in the gate: everything submitted below is
  // still queued when Shutdown lands.
  options.max_batch = 64;
  options.pre_batch_hook = gate.Hook();
  PcorServer server(engine_, options);
  RegisterProbe(&server);
  Future<BatchEntry> held = HoldDispatcher(&server, &gate);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 12; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "drainer");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  std::thread stopper([&server] { server.Shutdown(/*drain=*/true); });
  OpenAfterShutdownLands(&server, &gate);
  stopper.join();

  EXPECT_TRUE(held.Get().status.ok());
  for (auto& future : futures) {
    BatchEntry entry = future.Get();
    EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.released, 12u + 1);  // + the gate request
  EXPECT_EQ(stats.failed, 0u);
  // Drained work keeps its budget charge.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("drainer"), 12 * 0.2);
}

TEST_F(ServerStressTest, ShutdownAbortFailsPendingWithTypedStatusAndRefunds) {
  testing_util::DispatchGate gate;
  ServeOptions options = BaseOptions();
  options.max_batch = 64;
  options.pre_batch_hook = gate.Hook();
  PcorServer server(engine_, options);
  RegisterProbe(&server);
  Future<BatchEntry> held = HoldDispatcher(&server, &gate);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 10; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "aborted");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("aborted"), 10 * 0.2);
  // The gate opens only after the abort flag is provably set, so the ten
  // queued requests are popped into an aborting dispatcher.
  std::thread stopper([&server] { server.Shutdown(/*drain=*/false); });
  OpenAfterShutdownLands(&server, &gate);
  stopper.join();

  // The gate request was already executing when Shutdown landed.
  EXPECT_TRUE(held.Get().status.ok());
  for (auto& future : futures) {
    BatchEntry entry = future.Get();
    EXPECT_TRUE(entry.status.IsUnavailable()) << entry.status.ToString();
  }
  // Aborted work never touched the data: every charge is returned (up to
  // the accumulation residue of ten 0.2 add/subtract round trips).
  EXPECT_NEAR(server.accountant().SpentBy("aborted"), 0.0, 1e-12);
  EXPECT_EQ(server.stats().released, 1u);  // the gate request alone
}

TEST_F(ServerStressTest, FailedReleaseKeepsItsChargeInBothModes) {
  // Refund table: a release that fails server-side keeps its admission
  // charge, because its kNoValidContext status reveals something about
  // the data. Row 1 is no contextual outlier, so BFS finds no starting
  // context for it.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ASSERT_TRUE(stream.AppendRows(testing_util::RowsOf(grid_.dataset)).ok());
  ASSERT_EQ(stream.SealEpoch(), grid_.dataset.num_rows());
  PcorServer classic(engine_, BaseOptions());
  PcorServer streaming(stream, BaseOptions());
  for (PcorServer* server : {&classic, &streaming}) {
    SCOPED_TRACE(server->streaming() ? "streaming" : "classic");
    BatchRequest request;
    request.v_row = 1;
    auto submitted = server->SubmitAsync(request, "prober");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    const BatchEntry entry = submitted->Get();
    EXPECT_TRUE(entry.status.IsNoValidContext()) << entry.status.ToString();
    server->Shutdown(/*drain=*/true);
    EXPECT_DOUBLE_EQ(server->accountant().SpentBy("prober"),
                     BaseOptions().release.total_epsilon);
    EXPECT_EQ(server->stats().failed, 1u);
  }
}

TEST_F(ServerStressTest, SubmitAfterShutdownIsUnavailable) {
  PcorServer server(engine_, BaseOptions());
  server.Shutdown();
  auto future = server.SubmitAsync(OutlierRequest(), "latecomer");
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.status().IsUnavailable());
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("latecomer"), 0.0);
}

// The smallest total_epsilon ValidatePcorOptions admits for `sampler` at
// `num_samples`: admission is monotone in the total, and positive doubles
// order like their bit patterns, so bisect over the bits below 1.0.
double SmallestAdmittedEpsilon(SamplerKind sampler, size_t num_samples) {
  PcorOptions options;
  options.sampler = sampler;
  options.num_samples = num_samples;
  const auto admitted = [&](uint64_t bits) {
    options.total_epsilon = std::bit_cast<double>(bits);
    return ValidatePcorOptions(options).ok();
  };
  uint64_t rejected = 0;                        // +0.0
  uint64_t accepted = std::bit_cast<uint64_t>(1.0);
  while (accepted - rejected > 1) {
    const uint64_t mid = rejected + (accepted - rejected) / 2;
    (admitted(mid) ? accepted : rejected) = mid;
  }
  return std::bit_cast<double>(accepted);
}

TEST_F(ServerStressTest, AdmittedExtremesCompleteWithATypedStatus) {
  // Every sampler x utility at the edges admission lets through: the
  // server's num_samples and max_probes ceilings and 1, the smallest
  // admitted total_epsilon and 1e300. Each request must be admitted and
  // complete, released or failed with a typed status, and the server must
  // keep serving afterwards.
  constexpr size_t kMaxSamples = size_t{1} << 20;
  constexpr size_t kMaxProbes = 10'000;
  ServeOptions options = BaseOptions();
  options.release.num_samples = kMaxSamples;
  options.release.max_probes = kMaxProbes;
  PcorServer server(engine_, options);

  size_t cases = 0;
  std::vector<std::pair<std::string, Future<BatchEntry>>> futures;
  for (SamplerKind sampler :
       {SamplerKind::kDirect, SamplerKind::kUniform, SamplerKind::kRandomWalk,
        SamplerKind::kDfs, SamplerKind::kBfs}) {
    for (UtilityKind utility :
         {UtilityKind::kPopulationSize, UtilityKind::kOverlapWithStart}) {
      for (size_t num_samples : {size_t{1}, kMaxSamples}) {
        const double smallest =
            SmallestAdmittedEpsilon(sampler, num_samples);
        for (size_t max_probes : {size_t{1}, kMaxProbes}) {
          for (double epsilon : {smallest, 1e300}) {
            BatchRequest request = OutlierRequest();
            request.options = options.release;
            request.options->sampler = sampler;
            request.options->utility = utility;
            request.options->num_samples = num_samples;
            request.options->max_probes = max_probes;
            request.options->total_epsilon = epsilon;
            const std::string name = strings::Format(
                "%s/%s n=%zu probes=%zu eps=%g",
                SamplerKindName(sampler).c_str(),
                UtilityKindName(utility).c_str(), num_samples, max_probes,
                epsilon);
            auto future = server.SubmitAsync(request, "extremes");
            ASSERT_TRUE(future.ok()) << name << ": "
                                     << future.status().ToString();
            futures.emplace_back(name, std::move(*future));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 80u);
  for (auto& [name, future] : futures) {
    const BatchEntry entry = future.Get();
    const StatusCode code = entry.status.code();
    EXPECT_TRUE(code == StatusCode::kOk ||
                code == StatusCode::kFailedPrecondition ||
                code == StatusCode::kNoValidContext)
        << name << ": " << entry.status.ToString();
  }
  EXPECT_EQ(server.stats().rejected_invalid, 0u);

  BatchRequest plain = OutlierRequest();
  plain.options = BaseOptions().release;
  plain.options->max_probes = kMaxProbes;
  auto after = server.SubmitAsync(plain, "after");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->Get().status.ok());
}

TEST_F(ServerStressTest, ShutdownWakesASubmitterBlockedOnAFullQueue) {
  // The door-rejection rollback for the global queue: a submitter charged
  // at admission and then blocked on a full queue is woken by Shutdown. It
  // gets kUnavailable, its charge is refunded and it counts as one queue
  // rejection, while the work already queued drains and keeps its charge.
  testing_util::DispatchGate gate;
  ServeOptions options = BaseOptions();
  options.queue_capacity = 2;
  options.max_batch = 1;
  options.pre_batch_hook = gate.Hook();
  PcorServer server(engine_, options);
  Future<BatchEntry> held = HoldDispatcher(&server, &gate);

  // Two more fill the queue to capacity behind the parked dispatcher.
  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 2; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "pusher");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  const double queued_charge = server.accountant().SpentBy("pusher");
  ASSERT_EQ(server.stats().queue_high_water, 2u);

  std::atomic<bool> returned{false};
  Status blocked_status;
  std::thread blocked([&] {
    blocked_status = server.SubmitAsync(OutlierRequest(), "pusher").status();
    returned.store(true);
  });
  // Its charge lands before it blocks in the queue.
  while (server.accountant().SpentBy("pusher") == queued_charge) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(returned.load()) << "a submit into a full queue must block";

  // Shutdown closes the queue before it joins the parked dispatcher, so the
  // blocked submitter must return while the gate is still shut.
  std::thread stopper([&server] { server.Shutdown(/*drain=*/true); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const bool woken_by_shutdown = returned.load();
  const double spent_after_wake = server.accountant().SpentBy("pusher");
  gate.Open();
  blocked.join();
  stopper.join();

  EXPECT_TRUE(woken_by_shutdown) << "Shutdown did not wake the submitter";
  EXPECT_TRUE(blocked_status.IsUnavailable()) << blocked_status.ToString();
  EXPECT_NEAR(spent_after_wake, queued_charge, 1e-12);
  EXPECT_TRUE(held.Get().status.ok());
  for (auto& future : futures) EXPECT_TRUE(future.Get().status.ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_queue, 1u);
  EXPECT_EQ(stats.submitted, 3u);  // the gate request and the two queued
  EXPECT_EQ(stats.released, 3u);
  EXPECT_NEAR(server.accountant().SpentBy("pusher"), queued_charge, 1e-12);
}

TEST_F(ServerStressTest, TenantDepthRejectionRefundsLikeOtherDoorRejections) {
  // A tenant at its max_queue_depth is a *door* rejection: the request
  // never touched the data, so its admission charge must be rolled back —
  // exactly like shutdown rejections, and unlike data-touching failures
  // which keep their charge.
  std::atomic<bool> gate_open{false};
  std::atomic<size_t> batches_started{0};
  ServeOptions options = BaseOptions();
  options.queue_capacity = 64;  // global capacity is NOT the constraint
  options.max_batch = 1;
  options.pre_batch_hook = [&](std::span<const BatchRequest>) {
    batches_started.fetch_add(1);
    while (!gate_open.load()) std::this_thread::sleep_for(milliseconds(1));
  };
  PcorServer server(engine_, options);
  TenantConfig bounded;
  bounded.max_queue_depth = 1;
  ASSERT_TRUE(server.RegisterTenant("bounded", bounded).ok());

  std::vector<Future<BatchEntry>> futures;
  // First submission is popped by the dispatcher, which blocks on the gate
  // — the tenant's queue is empty again.
  auto first = server.SubmitAsync(OutlierRequest(), "bounded");
  ASSERT_TRUE(first.ok());
  futures.push_back(std::move(*first));
  while (batches_started.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // The second fills the tenant's depth bound of 1.
  auto second = server.SubmitAsync(OutlierRequest(), "bounded");
  ASSERT_TRUE(second.ok());
  futures.push_back(std::move(*second));
  const double spent_before = server.accountant().SpentBy("bounded");

  // The third overflows the tenant bound: typed, counted, and refunded.
  auto rejected = server.SubmitAsync(OutlierRequest(), "bounded");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("bounded"), spent_before);
  EXPECT_EQ(server.stats().rejected_depth, 1u);
  EXPECT_EQ(server.stats().rejected_queue, 0u);

  // Other tenants are untouched by the bounded tenant's backlog.
  auto other = server.SubmitAsync(OutlierRequest(), "unbounded");
  ASSERT_TRUE(other.ok());
  futures.push_back(std::move(*other));

  gate_open.store(true);
  for (auto& future : futures) {
    EXPECT_TRUE(future.Get().status.ok());
  }
  server.Shutdown();
  // Final ledger (up to the charge/refund round-trip residue): only the
  // two admitted requests kept their charge.
  EXPECT_NEAR(server.accountant().SpentBy("bounded"), 2 * 0.2, 1e-12);
}

TEST_F(ServerStressTest, BlockPolicyNeverRejectsUnderPressure) {
  ServeOptions options = BaseOptions();
  options.queue_capacity = 2;  // tiny buffer, heavy concurrent pressure
  options.max_batch = 4;
  PcorServer server(engine_, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 16;
  std::atomic<size_t> completed{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string client = "blocker-" + std::to_string(t);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto future = server.SubmitAsync(OutlierRequest(), client);
        ASSERT_TRUE(future.ok()) << future.status().ToString();
        EXPECT_TRUE(future->Get().status.ok());
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.released, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected_queue, 0u);
}

TEST_F(ServerStressTest, QueueHighWaterStaysWithinCapacityUnderFlood) {
  // Submitters racing an immediately-dispatching server: the peak depth is
  // recorded where the queue size is exact, so it can never exceed the
  // capacity (nor wrap around to SIZE_MAX).
  ServeOptions options = BaseOptions();
  options.queue_capacity = 4;
  options.max_batch = 4;
  PcorServer server(engine_, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 16;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string client = "flooder-" + std::to_string(t);
      std::vector<Future<BatchEntry>> futures;
      for (size_t i = 0; i < kPerThread; ++i) {
        auto future = server.SubmitAsync(OutlierRequest(), client);
        ASSERT_TRUE(future.ok()) << future.status().ToString();
        futures.push_back(std::move(*future));
      }
      for (auto& future : futures) EXPECT_TRUE(future.Get().status.ok());
    });
  }
  for (auto& t : clients) t.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.released, kThreads * kPerThread);
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_LE(stats.queue_high_water, options.queue_capacity);
}

TEST_F(ServerStressTest, QueueHighWaterCountsWorkQueuedBehindTheGate) {
  constexpr size_t kQueued = 5;
  testing_util::DispatchGate gate;
  ServeOptions options = BaseOptions();
  options.pre_batch_hook = gate.Hook();
  PcorServer server(engine_, options);
  Future<BatchEntry> held = HoldDispatcher(&server, &gate);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < kQueued; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "queued");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  EXPECT_EQ(server.stats().queue_high_water, kQueued);
  gate.Open();
  EXPECT_TRUE(held.Get().status.ok());
  for (auto& future : futures) EXPECT_TRUE(future.Get().status.ok());
  EXPECT_EQ(server.stats().queue_high_water, kQueued);
}

TEST_F(ServerStressTest, HookExceptionPropagatesToEveryFutureInTheBatch) {
  std::atomic<bool> armed{true};
  testing_util::DispatchGate gate;
  ServeOptions options = BaseOptions();
  // max_batch == submissions per wave, and the wave is queued behind the
  // gate: once it opens, the dispatcher provably takes the whole wave as
  // exactly one batch.
  options.max_batch = 4;
  options.pre_batch_hook = [&](std::span<const BatchRequest> batch) {
    if (gate.Pass()) return;  // the gate's own batch is not poisoned
    if (armed.exchange(false)) {
      throw std::runtime_error("verifier backend disappeared mid-batch");
    }
    (void)batch;
  };
  PcorServer server(engine_, options);
  Future<BatchEntry> held = HoldDispatcher(&server, &gate);

  std::vector<Future<BatchEntry>> futures;
  for (size_t i = 0; i < 4; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "doomed");
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  gate.Open();
  EXPECT_TRUE(held.Get().status.ok());
  size_t threw = 0;
  for (auto& future : futures) {
    try {
      (void)future.Get();
    } catch (const ServeError& e) {
      // Rewrapped per future (see ServeError): type changes, message
      // survives verbatim.
      EXPECT_STREQ(e.what(), "verifier backend disappeared mid-batch");
      ++threw;
    }
  }
  EXPECT_EQ(threw, futures.size())
      << "every future of the poisoned batch must observe the exception";

  // The dispatcher survived: a second full wave completes normally.
  std::vector<Future<BatchEntry>> wave2;
  for (size_t i = 0; i < 4; ++i) {
    auto future = server.SubmitAsync(OutlierRequest(), "survivor");
    ASSERT_TRUE(future.ok());
    wave2.push_back(std::move(*future));
  }
  for (auto& future : wave2) {
    EXPECT_TRUE(future.Get().status.ok());
  }
  EXPECT_GE(server.stats().failed, 4u);
}

TEST_F(ServerStressTest, DestructorDrainsOutstandingWork) {
  testing_util::DispatchGate gate;
  std::vector<Future<BatchEntry>> futures;
  std::thread opener;
  {
    ServeOptions options = BaseOptions();
    options.max_batch = 64;
    options.pre_batch_hook = gate.Hook();
    PcorServer server(engine_, options);
    RegisterProbe(&server);
    futures.push_back(HoldDispatcher(&server, &gate));
    for (size_t i = 0; i < 6; ++i) {
      auto future = server.SubmitAsync(OutlierRequest(), "scoped");
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
    // The destructor's join waits on the gate, which opens only after the
    // destructor's Shutdown landed — so the six are still queued then.
    opener = std::thread([&] { OpenAfterShutdownLands(&server, &gate); });
  }  // ~PcorServer == Shutdown(drain)
  opener.join();
  for (auto& future : futures) {
    EXPECT_TRUE(future.Get().status.ok());
  }
}

TEST_F(ServerStressTest, ConcurrentShutdownCallsAreSafe) {
  ServeOptions options = BaseOptions();
  PcorServer server(engine_, options);
  auto future = server.SubmitAsync(OutlierRequest(), "c");
  ASSERT_TRUE(future.ok());
  std::vector<std::thread> stoppers;
  for (size_t i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.Shutdown(/*drain=*/true); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_TRUE(future->Get().status.ok());
}

}  // namespace
}  // namespace pcor
