// Streaming-mode serving: SubmitAppend/SealEpoch grow the stream while
// continual-release requests ride the classic admission pipeline. The
// contracts under test: the default StreamingChargePolicy::kPerRelease
// charges full per-release epsilon (the cap bounds sequential
// composition) with the tree schedule as telemetry; the opt-in
// kTreeSchedule charges pinned-price tree levels (requests above the
// level price are rejected, burned slots keep their level charges, and a
// fixed tenant cap admits strictly more continual releases than classic
// charging); the determinism guarantee survives streaming (identical
// append/seal/submit interleavings at epoch granularity are bit-identical
// at any thread count); and no micro-batch straddles epochs.
#include "src/serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
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
    options.max_delay_us = 50;
    options.seed = 424242;
    return options;
  }

  // The opt-in tree-schedule variant; tests asserting tree arithmetic on
  // the LEDGER use this, everything else runs under the sound default.
  ServeOptions TreeOptions() const {
    ServeOptions options = Options();
    options.streaming_charge = StreamingChargePolicy::kTreeSchedule;
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
  PcorServer server(stream, TreeOptions());
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
    EXPECT_DOUBLE_EQ(entry.release.stream_epsilon_charged,
                     TreeAccountant::MarginalFor(k + 1, 0.4));
  }
  // The tenant ledger holds the tree-composed total, not 9 fresh budgets.
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"),
                   TreeAccountant::CumulativeFor(9, 0.4));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.appends, grid_.dataset.num_rows());
  EXPECT_EQ(stats.epochs_sealed, 1u);
  EXPECT_EQ(stats.epoch, grid_.dataset.num_rows());
  EXPECT_EQ(stats.released, 9u);
  EXPECT_DOUBLE_EQ(stats.naive_epsilon_spent, 9 * 0.4);
  EXPECT_LT(stats.epsilon_spent, stats.naive_epsilon_spent);
  // Under kTreeSchedule the tree telemetry IS the ledger.
  EXPECT_DOUBLE_EQ(stats.tree_epsilon_spent, stats.epsilon_spent);
}

TEST_F(StreamingServerTest, DefaultPolicyChargesFullEpsilonPerRelease) {
  // The default streaming_charge is kPerRelease: the ledger grows by the
  // full effective epsilon per release — exactly classic sequential
  // composition, so per_client_epsilon_cap bounds actual DP loss — while
  // the tree schedule is reported as advisory telemetry.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = Options();
  ASSERT_EQ(options.streaming_charge, StreamingChargePolicy::kPerRelease);
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  for (size_t k = 0; k < 5; ++k) {
    auto submitted = server.SubmitAsync(request, "tenant");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    const BatchEntry entry = submitted->Get();
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
    EXPECT_EQ(entry.release.stream_release_index, k + 1);
    // Every release paid full price — including non-power-of-two slots.
    EXPECT_DOUBLE_EQ(entry.release.stream_epsilon_charged, 0.4);
  }
  const ServerStats stats = server.stats();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("tenant"), 5 * 0.4);
  EXPECT_DOUBLE_EQ(stats.epsilon_spent, stats.naive_epsilon_spent);
  EXPECT_DOUBLE_EQ(stats.tree_epsilon_spent,
                   TreeAccountant::CumulativeFor(5, 0.4));
  EXPECT_LT(stats.tree_epsilon_spent, stats.epsilon_spent);

  // And the cap means what it says: 5 * 0.4 spent, a 2.0 cap is full.
  ServeOptions capped = Options();
  capped.per_client_epsilon_cap = 2.0;
  PcorServer capped_server(stream, capped);
  size_t admitted = 0;
  for (size_t k = 0; k < 8; ++k) {
    auto submitted = capped_server.SubmitAsync(request, "tenant");
    if (!submitted.ok()) {
      EXPECT_TRUE(submitted.status().IsPrivacyBudgetExceeded());
      break;
    }
    ++admitted;
    submitted->Get();
  }
  EXPECT_EQ(admitted, 5u);
}

TEST_F(StreamingServerTest, TreeScheduleRejectsRequestsAboveLevelPrice) {
  // The tree schedule prices levels, not requests: without the ceiling a
  // tenant could open levels with tiny-eps requests and ride arbitrarily
  // expensive releases at marginal 0. Over-price requests must be
  // rejected before anything is charged or sequenced.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, TreeOptions());
  SeedStream(&stream);

  BatchRequest cheap;
  cheap.v_row = grid_.v_row;
  cheap.options = TreeOptions().release;
  cheap.options->total_epsilon = 0.05;  // below the 0.4 level price

  BatchRequest expensive = cheap;
  expensive.options->total_epsilon = 3.0;  // way above the level price

  // A cheap request may open the level, but the level still costs its
  // full pinned price — cheap openers cannot discount later releases.
  auto opened = server.SubmitAsync(cheap, "t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  opened->Get();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"), 0.4);

  // The expensive request is rejected at any position, charged nothing,
  // and consumes no stream slot.
  auto rejected = server.SubmitAsync(expensive, "t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"), 0.4);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  auto next = server.SubmitAsync(cheap, "t");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->Get().release.stream_release_index, 2u);

  // A tenant registered with a higher level price may submit up to it —
  // and pays levels at that price. The price pins at stream start, so
  // register BEFORE the tenant's first submission.
  TenantConfig config;
  config.stream_level_epsilon = 3.0;
  ASSERT_TRUE(server.RegisterTenant("vip", config).ok());
  auto vip = server.SubmitAsync(expensive, "vip");
  ASSERT_TRUE(vip.ok()) << vip.status().ToString();
  vip->Get();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("vip"), 3.0);

  // Re-registering with a cheaper price cannot re-price a started
  // stream: "t" already bought levels at 0.4 and its next level still
  // costs 0.4.
  TenantConfig cheaper;
  cheaper.stream_level_epsilon = 0.01;
  ASSERT_TRUE(server.RegisterTenant("t", cheaper).ok());
  auto second_level = server.SubmitAsync(cheap, "t");  // position 3
  ASSERT_TRUE(second_level.ok());
  auto third_level = server.SubmitAsync(cheap, "t");  // position 4: level 3
  ASSERT_TRUE(third_level.ok());
  second_level->Get();
  third_level->Get();
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("t"),
                   TreeAccountant::CumulativeFor(4, 0.4));
}

TEST_F(StreamingServerTest, RequestsBeforeFirstSealFailTypedAndCharged) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  PcorServer server(stream, TreeOptions());
  BatchRequest request;
  request.v_row = 0;
  auto submitted = server.SubmitAsync(request, "early");
  ASSERT_TRUE(submitted.ok());
  const BatchEntry entry = submitted->Get();
  EXPECT_TRUE(entry.status.IsFailedPrecondition())
      << entry.status.ToString();
  // Dispatched work keeps its admission charge (the slot is burned;
  // over-charging is the safe direction).
  EXPECT_DOUBLE_EQ(server.accountant().SpentBy("early"),
                   TreeAccountant::MarginalFor(1, 0.4));
}

TEST_F(StreamingServerTest, TreeCapAdmitsExponentiallyMoreThanNaive) {
  // Cap of 1.3 at eps 0.4 per release: classic charging admits 3 requests
  // (3 * 0.4 = 1.2 <= 1.3 < 1.6). The tree schedule pays only when a level
  // opens — positions 1, 2, 4 charge 0.4 each (cumulative 1.2) and
  // positions 3, 5, 6, 7 ride free, so admission first fails at t = 8
  // (the 4th level would push the ledger to 1.6 > 1.3): 7 admissions.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = TreeOptions();
  options.per_client_epsilon_cap = 1.3;
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  size_t admitted = 0;
  Status first_rejection = Status::OK();
  for (size_t k = 0; k < 16; ++k) {
    auto submitted = server.SubmitAsync(request, "capped");
    if (!submitted.ok()) {
      first_rejection = submitted.status();
      break;
    }
    ++admitted;
    // Drain each future so rejections can't be queue artifacts.
    submitted->Get();
  }
  EXPECT_EQ(admitted, 7u);
  EXPECT_TRUE(first_rejection.IsPrivacyBudgetExceeded())
      << first_rejection.ToString();

  // Classic mode under the same cap stops at 3.
  PcorEngine engine(grid_.dataset, detector_);
  PcorServer classic(engine, options);
  size_t classic_admitted = 0;
  for (size_t k = 0; k < 16; ++k) {
    auto submitted = classic.SubmitAsync(request, "capped");
    if (!submitted.ok()) break;
    ++classic_admitted;
    submitted->Get();
  }
  EXPECT_EQ(classic_admitted, 3u);
  EXPECT_GT(admitted, classic_admitted);
}

TEST_F(StreamingServerTest, BudgetRejectionReturnsTheStreamSlot) {
  // A rejected charge must hand the slot back: the next admitted request
  // reuses position t (and its seed), so seeds stay dense and the tree
  // schedule stays aligned with actual admissions.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = TreeOptions();
  options.per_client_epsilon_cap = 0.4;  // one level only
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  auto first = server.SubmitAsync(request, "t");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Get().release.stream_release_index, 1u);

  // Position 2 opens level 2: rejected at the 0.4 cap, slot returned.
  auto rejected = server.SubmitAsync(request, "t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsPrivacyBudgetExceeded());
  EXPECT_EQ(server.stats().rejected_budget, 1u);

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
}

TEST_F(StreamingServerTest, BurnedSlotsNeverDiscountUnpaidLevels) {
  // Hammer admissions for ONE tenant from several threads against a tiny
  // rejecting queue: door rejections race later slot claims, so some
  // slots burn. The invariant that must survive (the under-charge fix):
  // the tenant's ledger always equals paid-levels times level price —
  // every marginal-0 admission rode a level somebody actually paid for,
  // because burned level-opening slots keep their charges and returned
  // ones give both the charge and the levels back.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ServeOptions options = TreeOptions();
  options.queue_capacity = 2;
  options.max_batch = 2;
  options.backpressure = BackpressurePolicy::kReject;
  options.pre_batch_hook = [](std::span<const BatchRequest>) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  PcorServer server(stream, options);
  SeedStream(&stream);

  BatchRequest request;
  request.v_row = grid_.v_row;
  std::atomic<size_t> admitted{0};
  std::mutex futures_mu;
  std::vector<Future<BatchEntry>> futures;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 40; ++k) {
        auto submitted = server.SubmitAsync(request, "hammer");
        if (!submitted.ok()) continue;
        ++admitted;
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(submitted).value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_GT(admitted.load(), 0u);
  uint64_t max_index = 0;
  for (auto& future : futures) {
    const BatchEntry entry = future.Get();
    if (entry.status.ok()) {
      max_index = std::max(max_index, entry.release.stream_release_index);
    }
  }
  server.Shutdown(/*drain=*/true);

  const ServerStats stats = server.stats();
  const double spent = server.accountant().SpentBy("hammer");
  EXPECT_NEAR(spent, stats.tree_epsilon_spent, 1e-9);
  EXPECT_GE(spent + 1e-9, TreeAccountant::CumulativeFor(max_index, 0.4));
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
    EXPECT_EQ(a.release.description, b.release.description);
    EXPECT_DOUBLE_EQ(a.release.utility_score, b.release.utility_score);
    EXPECT_EQ(a.release.probes, b.release.probes);
    EXPECT_EQ(a.release.epoch, b.release.epoch);
    EXPECT_EQ(a.release.stream_release_index, b.release.stream_release_index);
    EXPECT_DOUBLE_EQ(a.release.stream_epsilon_charged,
                     b.release.stream_epsilon_charged);
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
