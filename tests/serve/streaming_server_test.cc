// Streaming-mode serving: SubmitAppend/SealEpoch grow the stream while
// continual-release requests ride the classic admission pipeline. The
// contracts under test: streaming admission charges exactly like classic
// admission — the full effective epsilon per release, so the cap bounds
// sequential composition — on one path that keeps the ledger equal to the
// admitted releases and never hands two releases the same seed; the
// determinism guarantee survives streaming (identical append/seal/submit
// interleavings at epoch granularity are bit-identical at any thread
// count); and no micro-batch straddles epochs.
#include "src/serve/server.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "src/search/streaming.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using testing_util::RowsOf;

class StreamingServerTest : public ::testing::Test {
 protected:
  StreamingServerTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()) {}

  ServeOptions Options() const {
    ServeOptions options;
    options.release.sampler = SamplerKind::kBfs;
    options.release.num_samples = 8;
    options.release.total_epsilon = 0.4;
    options.seed = 424242;
    return options;
  }

  // A stream sealed at exactly the classic fixture.
  void SeedStream(StreamingPcorEngine* stream) {
    ASSERT_TRUE(stream->AppendRows(RowsOf(grid_.dataset)).ok());
    ASSERT_EQ(stream->SealEpoch(), grid_.dataset.num_rows());
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
};

TEST_F(StreamingServerTest, ClassicServerRejectsStreamingCalls) {
  PcorEngine engine(grid_.dataset, detector_);
  PcorServer server(engine, Options());
  EXPECT_FALSE(server.streaming());
  EXPECT_TRUE(
      server.SubmitAppend(Row{{0, 0}, 1.0}).IsFailedPrecondition());
  EXPECT_TRUE(server.SealEpoch().status().IsFailedPrecondition());
}

TEST_F(StreamingServerTest, AppendsSealAndServeWithEpochAnnotations) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, Options());
  EXPECT_TRUE(server.streaming());

  ASSERT_TRUE(server.SubmitAppends(RowsOf(grid_.dataset)).ok());
  auto sealed = server.SealEpoch();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, grid_.dataset.num_rows());

  BatchRequest request;
  request.v_row = grid_.v_row;
  std::vector<Future<BatchEntry>> futures;
  for (size_t k = 0; k < 9; ++k) {
    auto submitted = server.SubmitAsync(request, "tenant");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (size_t k = 0; k < futures.size(); ++k) {
    SCOPED_TRACE(k);
    const BatchEntry entry = futures[k].Get();
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_EQ(entry.release.epoch, grid_.dataset.num_rows());
    EXPECT_EQ(entry.release.stream_release_index, k + 1);
  }
  // Nine releases, nine full charges.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 9 * 0.4);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.appends, grid_.dataset.num_rows());
  EXPECT_EQ(stats.epochs_sealed, 1u);
  EXPECT_EQ(stats.epoch, grid_.dataset.num_rows());
  EXPECT_EQ(stats.released, 9u);
  EXPECT_DOUBLE_EQ(stats.epsilon_spent, 9 * 0.4);
}

TEST_F(StreamingServerTest, DefaultPolicyChargesFullEpsilonPerRelease) {
  // The ledger grows by each release's full effective epsilon — exactly
  // classic sequential composition, so per_client_epsilon_cap bounds
  // actual DP loss. A cheap first release must not discount the
  // expensive ones after it, and what admission charged is what the
  // releases themselves report as spent.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, Options());
  SeedStream(&stream);

  const double budgets[] = {0.05, 0.4, 0.4, 0.4, 0.2};
  double spent = 0.0;
  double released_sum = 0.0;
  for (size_t k = 0; k < 5; ++k) {
    BatchRequest request;
    request.v_row = grid_.v_row;
    request.options = Options().release;
    request.options->total_epsilon = budgets[k];
    auto submitted = server.SubmitAsync(request, "tenant");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    const BatchEntry entry = submitted->Get();
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_EQ(entry.release.stream_release_index, k + 1);
    EXPECT_EQ(entry.release.epoch, grid_.dataset.num_rows());
    EXPECT_NEAR(entry.release.epsilon_spent, budgets[k], 1e-12);
    spent += budgets[k];
    released_sum += entry.release.epsilon_spent;
    EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), spent);
  }
  EXPECT_NEAR(released_sum, 1.45, 1e-9);
  EXPECT_NEAR(server.accountant().SpentBy("tenant"), released_sum, 1e-12);
}

TEST_F(StreamingServerTest, RequestsBeforeFirstSealFailTypedAndCharged) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, Options());
  BatchRequest request;
  request.v_row = 0;
  auto submitted = server.SubmitAsync(request, "early");
  ASSERT_TRUE(submitted.ok());
  const BatchEntry entry = submitted->Get();
  EXPECT_TRUE(entry.status.IsFailedPrecondition())
      << entry.status.ToString();
  EXPECT_EQ(entry.v_row, 0u);
  EXPECT_EQ(entry.rng_seed,
            PcorServer::RequestSeed(Options().seed, "early", 0));
  // Dispatched work keeps its admission charge (over-charging is the
  // safe direction).
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("early"), 0.4);
  // It was dispatched, so it counts as a batch of one failed entry.
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.released, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_coalesced, 1u);
}

TEST_F(StreamingServerTest, CapAdmitsTheSameReleasesAsClassic) {
  // Cap of 1.3 at eps 0.4 per release: 3 * 0.4 = 1.2 <= 1.3 < 1.6, so
  // exactly three admissions — on a streaming server as on a classic one.
  ServeOptions options = Options();
  options.per_client_epsilon_cap = 1.3;
  BatchRequest request;
  request.v_row = grid_.v_row;
  auto admit_until_rejected = [&](PcorServer& server) {
    size_t admitted = 0;
    for (size_t k = 0; k < 16; ++k) {
      auto submitted = server.SubmitAsync(request, "capped");
      if (!submitted.ok()) {
        EXPECT_TRUE(submitted.status().IsPrivacyBudgetExceeded())
            << submitted.status().ToString();
        break;
      }
      ++admitted;
      // Drain each future so rejections can't be queue artifacts.
      submitted->Get();
    }
    return admitted;
  };

  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer streaming(stream, options);
  SeedStream(&stream);
  EXPECT_EQ(admit_until_rejected(streaming), 3u);

  PcorEngine engine(grid_.dataset, detector_);
  PcorServer classic(engine, options);
  EXPECT_EQ(admit_until_rejected(classic), 3u);
}

TEST_F(StreamingServerTest, BudgetRejectionReturnsTheStreamSlot) {
  // A rejected charge must hand the slot back: the next admitted request
  // reuses position t (and its seed), so seeds and stream positions stay
  // dense.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = Options();
  options.per_client_epsilon_cap = 0.4;  // one release only
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  auto first = server.SubmitAsync(request, "t");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Get().release.stream_release_index, 1u);

  // Position 2 would spend 0.8: rejected at the 0.4 cap, slot returned,
  // nothing charged.
  auto rejected = server.SubmitAsync(request, "t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsPrivacyBudgetExceeded());
  EXPECT_EQ(server.stats().rejected_budget, 1u);
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"), 0.4);

  // Raising the tenant cap admits the retry at position 2 — the same
  // stream position the rejection briefly claimed.
  TenantConfig config;
  config.epsilon_cap = 10.0;
  ASSERT_TRUE(server.RegisterTenant("t", config).ok());
  auto retried = server.SubmitAsync(request, "t");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  const BatchEntry entry = retried->Get();
  ASSERT_TRUE(entry.status.ok());
  EXPECT_EQ(entry.release.stream_release_index, 2u);
  EXPECT_EQ(entry.rng_seed,
            PcorServer::RequestSeed(options.seed, "t", 1));
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"), 2 * 0.4);
}

TEST_F(StreamingServerTest, ConcurrentAdmissionsChargeEachReleaseOnce) {
  // Hammer admissions for ONE tenant from several threads against a tiny
  // per-tenant depth bound: door rejections (kTenantFull) race later slot
  // claims, so some slots burn. The one admission path must still leave
  // the ledger at exactly 0.4 per admitted release (every door rejection
  // refunded) and never hand two admitted releases the same Rng stream —
  // on a classic and on a streaming server alike.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  ServeOptions options = Options();
  options.max_batch = 2;
  options.pre_batch_hook = [](std::span<const BatchRequest>) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  TenantConfig bounded;
  bounded.max_queue_depth = 2;
  BatchRequest request;
  request.v_row = grid_.v_row;
  auto hammer = [&](PcorServer& server) {
    ASSERT_TRUE(server.RegisterTenant("hammer", bounded).ok());
    std::mutex futures_mu;
    std::vector<Future<BatchEntry>> futures;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int k = 0; k < kPerThread; ++k) {
          auto submitted = server.SubmitAsync(request, "hammer");
          if (!submitted.ok()) continue;
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(submitted).value());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    ASSERT_GT(futures.size(), 0u);
    std::set<uint64_t> seeds;
    for (auto& future : futures) {
      const BatchEntry entry = future.Get();
      EXPECT_TRUE(entry.status.ok()) << entry.status.ToString();
      seeds.insert(entry.rng_seed);
    }
    server.Shutdown(/*drain=*/true);

    EXPECT_EQ(seeds.size(), futures.size());
    EXPECT_NEAR(server.accountant().SpentBy("hammer"),
                0.4 * static_cast<double>(futures.size()), 1e-9);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, futures.size());
    EXPECT_EQ(stats.submitted + stats.rejected_queue + stats.rejected_depth,
              static_cast<size_t>(kThreads * kPerThread));
  };

  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer streaming(stream, options);
  SeedStream(&stream);
  hammer(streaming);

  PcorEngine engine(grid_.dataset, detector_);
  PcorServer classic(engine, options);
  hammer(classic);
}

TEST_F(StreamingServerTest, InterleavingsAreBitIdenticalAcrossThreadCounts) {
  // One reference run: serial submissions against a sealed epoch, then the
  // same per-tenant plan raced from many client threads against a server
  // with 16 release threads. Epoch-granular interleaving is identical
  // (all appends sealed before any submission), so every (tenant, k)
  // release must be bit-identical.
  constexpr size_t kTenants = 6;
  constexpr size_t kPerTenant = 5;
  using Key = std::pair<std::string, size_t>;
  auto run = [&](size_t release_threads,
                 bool raced) -> std::map<Key, BatchEntry> {
    StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
    ServeOptions options = Options();
    options.release_threads = release_threads;
    PcorServer server(stream, options);
    SeedStream(&stream);
    BatchRequest request;
    request.v_row = grid_.v_row;

    std::map<Key, BatchEntry> results;
    std::mutex results_mu;
    auto submit_plan = [&](size_t tenant) {
      const std::string id = strings::Format("tenant%zu", tenant);
      std::vector<Future<BatchEntry>> futures;
      for (size_t k = 0; k < kPerTenant; ++k) {
        auto submitted = server.SubmitAsync(request, id);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures.push_back(std::move(submitted).value());
      }
      for (size_t k = 0; k < futures.size(); ++k) {
        BatchEntry entry = futures[k].Get();
        std::lock_guard<std::mutex> lock(results_mu);
        results.emplace(Key{id, k}, std::move(entry));
      }
    };
    if (raced) {
      std::vector<std::thread> threads;
      for (size_t t = 0; t < kTenants; ++t) {
        threads.emplace_back([&, t] { submit_plan(t); });
      }
      for (auto& t : threads) t.join();
    } else {
      for (size_t t = 0; t < kTenants; ++t) submit_plan(t);
    }
    server.Shutdown(/*drain=*/true);
    // One full charge per release, whatever the thread count or races.
    EXPECT_NEAR(server.accountant().TotalSpent(),
                kTenants * kPerTenant * Options().release.total_epsilon,
                1e-9);
    return results;
  };

  const std::map<Key, BatchEntry> want = run(/*release_threads=*/1,
                                             /*raced=*/false);
  const std::map<Key, BatchEntry> got = run(/*release_threads=*/16,
                                            /*raced=*/true);
  ASSERT_EQ(want.size(), kTenants * kPerTenant);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, a] : want) {
    SCOPED_TRACE(key.first + "/" + std::to_string(key.second));
    const auto it = got.find(key);
    ASSERT_NE(it, got.end());
    const BatchEntry& b = it->second;
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.rng_seed, b.rng_seed);
    EXPECT_EQ(a.release.context, b.release.context);
    EXPECT_EQ(a.release.starting_context, b.release.starting_context);
    EXPECT_EQ(a.release.description, b.release.description);
    EXPECT_DOUBLE_EQ(a.release.epsilon_spent, b.release.epsilon_spent);
    EXPECT_EQ(a.release.num_candidates, b.release.num_candidates);
    EXPECT_DOUBLE_EQ(a.release.utility_score, b.release.utility_score);
    EXPECT_EQ(a.release.probes, b.release.probes);
    EXPECT_EQ(a.release.epoch, b.release.epoch);
    // The tenant's k-th submission sits at stream position k + 1.
    EXPECT_EQ(a.release.stream_release_index, key.second + 1);
    EXPECT_EQ(a.release.stream_release_index, b.release.stream_release_index);
  }
}

TEST_F(StreamingServerTest, BatchesNeverStraddleEpochsUnderChurn) {
  // Appends and seals race a stream of submissions; whatever epoch each
  // micro-batch pins, every released entry must replay exactly through a
  // fresh engine over that epoch's prefix — which also proves the batch
  // executed against a single consistent snapshot.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = Options();
  options.max_batch = 4;
  PcorServer server(stream, options);
  SeedStream(&stream);

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      server.SubmitAppend(Row{{i % 3, (i / 3) % 3}, 99.0 + double(i % 5)})
          .CheckOK();
      if (++i % 8 == 0) {
        auto sealed = server.SealEpoch();
        ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
      }
    }
  });

  BatchRequest request;
  request.v_row = grid_.v_row;
  std::vector<Future<BatchEntry>> futures;
  for (size_t k = 0; k < 48; ++k) {
    auto submitted = server.SubmitAsync(request, "churn");
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  std::vector<BatchEntry> entries;
  for (auto& future : futures) entries.push_back(future.Get());
  stop.store(true, std::memory_order_relaxed);
  churner.join();

  // Rebuild each observed epoch's prefix dataset once and replay.
  std::map<uint64_t, std::unique_ptr<PcorEngine>> oracles;
  std::map<uint64_t, std::unique_ptr<Dataset>> prefixes;
  const std::shared_ptr<const EpochSnapshot> tip = stream.Pin();
  for (size_t k = 0; k < entries.size(); ++k) {
    SCOPED_TRACE(k);
    const BatchEntry& entry = entries[k];
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    const uint64_t epoch = entry.release.epoch;
    ASSERT_GE(epoch, grid_.dataset.num_rows());
    ASSERT_LE(epoch, tip->epoch);
    if (oracles.find(epoch) == oracles.end()) {
      auto prefix = std::make_unique<Dataset>(testing_util::GridSchema());
      for (size_t r = 0; r < epoch; ++r) {
        prefix->AppendRow(tip->RowAt(static_cast<uint32_t>(r))).CheckOK();
      }
      oracles[epoch] =
          std::make_unique<PcorEngine>(*prefix, detector_);
      prefixes[epoch] = std::move(prefix);
    }
    Rng rng(entry.rng_seed);
    auto replay =
        oracles[epoch]->Release(grid_.v_row, options.release, &rng);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->context, entry.release.context);
    EXPECT_DOUBLE_EQ(replay->utility_score, entry.release.utility_score);
    EXPECT_EQ(replay->probes, entry.release.probes);
  }
}

}  // namespace
}  // namespace pcor
