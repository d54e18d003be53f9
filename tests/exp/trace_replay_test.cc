// ReplayTrace contract tests, all on VirtualClocks (zero wall-clock
// sleeps in the dispatch loop): classic replays account every terminal
// outcome and hold the scheduled>=submitted dominance, budget-capped
// traces reject with exact arithmetic, worker exceptions are tallied
// rather than terminating a collector, concurrent replays against one
// server keep exact per-replay counts, and — the determinism satellite —
// a mixed Release/Append/Seal streaming trace replayed at 1 and 16
// collector threads produces bit-identical release digests and epoch
// numbering.
#include "src/exp/trace_driver.h"

#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/exp/trace.h"
#include "src/search/streaming.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

TraceEvent Release(int64_t at_us, const char* tenant, uint64_t rows = 0,
                   double epsilon = 0.0) {
  TraceEvent e;
  e.at_us = at_us;
  e.tenant = tenant;
  e.kind = TraceEventKind::kRelease;
  e.epsilon = epsilon;
  e.rows = rows;
  return e;
}

class ClassicReplayTest : public ::testing::Test {
 protected:
  ClassicReplayTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()),
        engine_(grid_.dataset, detector_) {}

  ServeOptions Options() const {
    ServeOptions options;
    options.release.sampler = SamplerKind::kBfs;
    options.release.num_samples = 6;
    options.release.total_epsilon = 0.2;
    options.max_batch = 8;
    options.seed = 2021;
    return options;
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
  PcorEngine engine_;
};

TEST_F(ClassicReplayTest, AccountsEveryTerminalOutcome) {
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 4; ++i) {
    trace.push_back(Release(i * 20, "a", static_cast<uint64_t>(i)));
    trace.push_back(Release(i * 20 + 10, "b", static_cast<uint64_t>(i)));
  }
  PcorServer server(engine_, Options());
  VirtualClock clock;
  TraceReplayOptions replay;
  replay.clock = &clock;
  replay.collector_threads = 2;
  const std::vector<uint32_t> pool{grid_.v_row};
  auto result = ReplayTrace(server, trace, pool, replay);
  server.Shutdown();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->releases, 8u);
  EXPECT_EQ(result->released, 8u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->rejected_budget, 0u);
  EXPECT_EQ(result->rejected_other, 0u);
  EXPECT_EQ(result->exceptions, 0u);
  EXPECT_EQ(result->driver.dispatched, 8u);
  // Every terminal outcome lands in BOTH histogram families.
  EXPECT_EQ(result->scheduled.count(), 8u);
  EXPECT_EQ(result->submitted.count(), 8u);
  // Pointwise dominance: scheduled latency = submitted latency + dispatch
  // lag, so every scheduled percentile bounds its submitted twin.
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GE(result->scheduled.PercentileUs(q),
              result->submitted.PercentileUs(q))
        << "q=" << q;
  }

  // Per-tenant breakdown: first-appearance order, counts partition the
  // aggregate.
  ASSERT_EQ(result->tenants.size(), 2u);
  EXPECT_EQ(result->tenants[0].id, "a");
  EXPECT_EQ(result->tenants[1].id, "b");
  for (const TenantReplayStats& tenant : result->tenants) {
    EXPECT_EQ(tenant.releases, 4u);
    EXPECT_EQ(tenant.released, 4u);
    EXPECT_EQ(tenant.scheduled.count(), 4u);
    EXPECT_EQ(tenant.submitted.count(), 4u);
  }
}

TEST_F(ClassicReplayTest, BudgetCapRejectsWithExactArithmetic) {
  // eps=0.25 against cap=1.0 — both exact binary doubles, so exactly 4
  // admissions then 2 budget rejections, no epsilon drift possible.
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 6; ++i) {
    trace.push_back(Release(i * 10, "capped", 0, /*epsilon=*/0.25));
  }
  ServeOptions options = Options();
  options.per_client_epsilon_cap = 1.0;
  PcorServer server(engine_, options);
  VirtualClock clock;
  TraceReplayOptions replay;
  replay.clock = &clock;
  const std::vector<uint32_t> pool{grid_.v_row};
  auto result = ReplayTrace(server, trace, pool, replay);
  server.Shutdown();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->released, 4u);
  EXPECT_EQ(result->rejected_budget, 2u);
  EXPECT_EQ(result->rejected_other, 0u);
  ASSERT_EQ(result->tenants.size(), 1u);
  EXPECT_EQ(result->tenants[0].rejected_budget, 2u);
  // Rejections terminate at admission: they still appear in both
  // families (submitted latency 0), so the histograms cover all 6.
  EXPECT_EQ(result->scheduled.count(), 6u);
  EXPECT_EQ(result->submitted.count(), 6u);
}

TEST_F(ClassicReplayTest, DigestIsReproducibleAcrossRunsAndCollectors) {
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 12; ++i) {
    trace.push_back(Release(i * 10, i % 2 == 0 ? "even" : "odd",
                            static_cast<uint64_t>(i)));
  }
  auto run = [&](size_t collector_threads) {
    PcorServer server(engine_, Options());
    VirtualClock clock;
    TraceReplayOptions replay;
    replay.clock = &clock;
    replay.collector_threads = collector_threads;
    const std::vector<uint32_t> pool{grid_.v_row};
    auto result = ReplayTrace(server, trace, pool, replay);
    server.Shutdown();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->release_digest : 0;
  };
  const uint64_t baseline = run(1);
  EXPECT_NE(baseline, 0u);
  EXPECT_EQ(run(1), baseline);   // same trace, same seed => same digest
  EXPECT_EQ(run(4), baseline);   // collector threading never perturbs it
}

TEST_F(ClassicReplayTest, FailsFastOnImpossibleTraces) {
  PcorServer server(engine_, Options());
  VirtualClock clock;
  TraceReplayOptions replay;
  replay.clock = &clock;

  // Releases with an empty outlier pool.
  const std::vector<TraceEvent> release_trace{Release(0, "a")};
  auto no_pool = ReplayTrace(server, release_trace, {}, replay);
  EXPECT_TRUE(no_pool.status().IsInvalidArgument())
      << no_pool.status().ToString();

  // Appends with no row source.
  TraceEvent append;
  append.at_us = 0;
  append.tenant = "a";
  append.kind = TraceEventKind::kAppend;
  append.rows = 4;
  const std::vector<TraceEvent> append_trace{append};
  auto no_source = ReplayTrace(server, append_trace, {}, replay);
  EXPECT_TRUE(no_source.status().IsInvalidArgument())
      << no_source.status().ToString();

  // Streaming events against a classic server.
  replay.row_source = MakeUniformRowSource(grid_.dataset.schema(), 7);
  auto not_streaming = ReplayTrace(server, append_trace, {}, replay);
  EXPECT_TRUE(not_streaming.status().IsInvalidArgument())
      << not_streaming.status().ToString();

  server.Shutdown();
}

TEST_F(ClassicReplayTest, ContainsWorkerExceptionsInsteadOfTerminating) {
  // Every micro-batch is poisoned: each Get() rethrows inside a collector
  // thread, which must tally the exception rather than let it escape the
  // thread body and std::terminate the process.
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 6; ++i) trace.push_back(Release(i * 10, "poisoned"));
  ServeOptions options = Options();
  options.pre_batch_hook = [](std::span<const BatchRequest>) {
    throw std::runtime_error("poisoned batch");
  };
  PcorServer server(engine_, options);
  VirtualClock clock;
  TraceReplayOptions replay;
  replay.clock = &clock;
  replay.collector_threads = 2;
  const std::vector<uint32_t> pool{grid_.v_row};
  auto result = ReplayTrace(server, trace, pool, replay);
  server.Shutdown();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->releases, 6u);
  EXPECT_EQ(result->exceptions, 6u);
  EXPECT_EQ(result->released, 0u);
  EXPECT_EQ(result->failed, 0u);
  // An exception is a terminal outcome like any other: both families
  // record it.
  EXPECT_EQ(result->scheduled.count(), 6u);
  EXPECT_EQ(result->submitted.count(), 6u);
  ASSERT_EQ(result->tenants.size(), 1u);
  EXPECT_EQ(result->tenants[0].exceptions, 6u);
}

TEST_F(ClassicReplayTest, ConcurrentReplaysOnOneServerKeepExactCounts) {
  // Two replays race against one server from their own threads, every
  // event at t=0 — the shape bench_serve_throughput's fairness bar runs.
  // Each replay must account exactly its own releases, and since a
  // request's seed depends only on (tenant, k), each digest must equal
  // that of the same trace replayed alone.
  std::vector<TraceEvent> trace_a;
  std::vector<TraceEvent> trace_b;
  for (int i = 0; i < 24; ++i) {
    trace_a.push_back(Release(0, "a", static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < 5; ++i) {
    trace_b.push_back(Release(0, "b", static_cast<uint64_t>(i)));
  }
  const std::vector<uint32_t> pool{grid_.v_row};
  const auto replay_on = [&](PcorServer& server,
                             const std::vector<TraceEvent>& trace) {
    VirtualClock clock;
    TraceReplayOptions replay;
    replay.clock = &clock;
    auto result = ReplayTrace(server, trace, pool, replay);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : TraceReplayResult{};
  };

  TraceReplayResult alone_a;
  TraceReplayResult alone_b;
  {
    PcorServer server(engine_, Options());
    alone_a = replay_on(server, trace_a);
    alone_b = replay_on(server, trace_b);
  }

  PcorServer server(engine_, Options());
  TraceReplayResult raced_a;
  TraceReplayResult raced_b;
  std::thread replay_a([&] { raced_a = replay_on(server, trace_a); });
  std::thread replay_b([&] { raced_b = replay_on(server, trace_b); });
  replay_a.join();
  replay_b.join();
  server.Shutdown();

  const auto expect_exact = [](const TraceReplayResult& result, size_t releases,
                               const char* id) {
    SCOPED_TRACE(id);
    EXPECT_EQ(result.releases, releases);
    EXPECT_EQ(result.released, releases);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.rejected_budget, 0u);
    EXPECT_EQ(result.rejected_other, 0u);
    EXPECT_EQ(result.exceptions, 0u);
    EXPECT_EQ(result.scheduled.count(), releases);
    EXPECT_EQ(result.submitted.count(), releases);
    ASSERT_EQ(result.tenants.size(), 1u);
    EXPECT_EQ(result.tenants[0].id, id);
    EXPECT_EQ(result.tenants[0].released, releases);
  };
  expect_exact(raced_a, 24, "a");
  expect_exact(raced_b, 5, "b");
  EXPECT_EQ(raced_a.release_digest, alone_a.release_digest);
  EXPECT_EQ(raced_b.release_digest, alone_b.release_digest);
  EXPECT_EQ(server.stats().released, 29u);
}

// The streaming determinism satellite: a mixed Release/Append/Seal trace
// replayed at 1 and at 16 collector threads must produce bit-identical
// release payloads (digest) and epoch numbering.
TEST(StreamingReplayTest, MixedTraceIsBitIdenticalAcrossCollectorThreads) {
  const Schema schema = testing_util::GridSchema();
  const ZscoreDetector detector = testing_util::MakeTestDetector();

  StreamingTraceOptions trace_options;
  trace_options.epochs = 2;
  trace_options.appends_per_epoch = 3;
  trace_options.rows_per_append = 16;
  trace_options.releases_per_epoch = 4;
  trace_options.epoch_interval_us = 10'000;
  const std::vector<TraceEvent> trace = MakeStreamingTrace(trace_options);

  // Pool: the planted-outlier rows (stride 17) sealed by the FIRST epoch
  // (3 appends x 16 rows = 48), so every release targets a row that
  // exists under the seal barrier.
  std::vector<uint32_t> pool{0, 17, 34};

  auto run = [&](size_t collector_threads) {
    StreamingPcorEngine stream(schema, detector);
    ServeOptions serve;
    serve.release.sampler = SamplerKind::kBfs;
    serve.release.num_samples = 8;
    serve.release.total_epsilon = 0.4;
    serve.max_batch = 4;
    serve.seed = 424242;
    PcorServer server(stream, serve);
    VirtualClock clock;
    TraceReplayOptions replay;
    replay.clock = &clock;
    replay.collector_threads = collector_threads;
    replay.row_source = MakeUniformRowSource(schema, 424242);
    auto result = ReplayTrace(server, trace, pool, replay);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    server.Shutdown();
    return result.ok() ? std::move(*result) : TraceReplayResult{};
  };

  const TraceReplayResult one = run(1);
  const TraceReplayResult sixteen = run(16);

  // Bit-identical across collector threading.
  EXPECT_EQ(one.release_digest, sixteen.release_digest);
  EXPECT_EQ(one.final_epoch, sixteen.final_epoch);
  EXPECT_EQ(one.released, sixteen.released);
  EXPECT_EQ(one.failed, sixteen.failed);

  // And the lifecycle accounting is exact, not merely equal: every
  // append row buffered, every seal applied, every release terminal.
  EXPECT_EQ(one.appends, 2u * 3u * 16u);
  EXPECT_EQ(one.append_errors, 0u);
  EXPECT_EQ(one.seals, 2u);
  // Epoch ids are sealed row counts: both seals landed, so the final
  // epoch covers every appended row.
  EXPECT_EQ(one.final_epoch, 2u * 3u * 16u);
  EXPECT_EQ(one.releases, 8u);
  EXPECT_EQ(one.released + one.failed + one.rejected_budget +
                one.rejected_other + one.exceptions,
            8u);
  EXPECT_EQ(one.scheduled.count(), 8u);
  EXPECT_EQ(one.submitted.count(), 8u);
}

}  // namespace
}  // namespace pcor
