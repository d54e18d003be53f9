// Parallelism inside the engine: the sharded index must be a pure latency
// lever — the released context and every deterministic release field are
// bit-identical for any shard count. Also the detector thread_local
// regression: releases initiated from pool workers run detector code (with
// its per-thread scratch buffers) on worker threads, and must still match
// serial main-thread output exactly (see the scratch-discipline contract in
// outlier/detector.h).
// And the one-executor contract: ReleaseBatch fans out on the engine's
// probe pool, so batches issued from that pool's own workers and batches
// racing each other on one engine must complete and stay bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/threading.h"
#include "src/search/pcor.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

// The deterministic contract: everything except the attribution estimates
// (f_evaluations / cache_hits, documented as scheduling-dependent) and wall
// time must be identical.
void ExpectSameRelease(const PcorRelease& a, const PcorRelease& b) {
  EXPECT_EQ(a.context, b.context);
  EXPECT_EQ(a.description, b.description);
  EXPECT_EQ(a.starting_context, b.starting_context);
  EXPECT_DOUBLE_EQ(a.epsilon_spent, b.epsilon_spent);
  EXPECT_DOUBLE_EQ(a.epsilon1, b.epsilon1);
  EXPECT_EQ(a.num_candidates, b.num_candidates);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_DOUBLE_EQ(a.utility_score, b.utility_score);
  EXPECT_EQ(a.hit_probe_cap, b.hit_probe_cap);
}

void ExpectSameBatch(const BatchReleaseReport& want,
                     const BatchReleaseReport& got) {
  ASSERT_EQ(want.entries.size(), got.entries.size());
  EXPECT_EQ(want.failures, got.failures);
  for (size_t i = 0; i < want.entries.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(want.entries[i].rng_seed, got.entries[i].rng_seed);
    ASSERT_EQ(want.entries[i].status.ok(), got.entries[i].status.ok());
    if (want.entries[i].status.ok()) {
      ExpectSameRelease(want.entries[i].release, got.entries[i].release);
    }
  }
}

class IntraReleaseParallelTest : public ::testing::Test {
 protected:
  IntraReleaseParallelTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()) {}

  PcorOptions BaseOptions() const {
    PcorOptions options;
    options.sampler = SamplerKind::kBfs;
    options.num_samples = 8;
    options.total_epsilon = 0.4;
    return options;
  }

  testing_util::GridData grid_;
  ZscoreDetector detector_;
};

TEST_F(IntraReleaseParallelTest, ShardedEngineMatchesDefaultEngine) {
  PcorEngine reference_engine(grid_.dataset, detector_);
  ShardedIndexOptions index_options;
  index_options.shard_count = 5;  // 37 rows over 5 shards: most are empty
  PcorEngine sharded_engine(grid_.dataset, detector_, VerifierOptions{},
                            index_options);
  ASSERT_EQ(dynamic_cast<const ShardedPopulationIndex&>(sharded_engine.probe())
                .segment_count(),
            5u);
  for (SamplerKind kind :
       {SamplerKind::kDirect, SamplerKind::kUniform, SamplerKind::kRandomWalk,
        SamplerKind::kDfs, SamplerKind::kBfs}) {
    PcorOptions options = BaseOptions();
    options.sampler = kind;
    Rng ref_rng(321);
    Rng sharded_rng(321);
    auto reference = reference_engine.Release(grid_.v_row, options, &ref_rng);
    auto sharded = sharded_engine.Release(grid_.v_row, options, &sharded_rng);
    ASSERT_EQ(reference.ok(), sharded.ok()) << SamplerKindName(kind);
    if (reference.ok()) ExpectSameRelease(*reference, *sharded);
  }
}

TEST_F(IntraReleaseParallelTest, WorkerInitiatedReleaseMatchesMainThread) {
  // The detector-scratch regression: for every registered detector, run a
  // sharded release from inside a foreign ThreadPool worker (so
  // detector thread_local buffers are exercised on nested worker threads)
  // and demand exact agreement with a serial main-thread release.
  for (const std::string& name : RegisteredDetectorNames()) {
    auto detector = MakeDetector(name);
    ASSERT_TRUE(detector.ok()) << name;
    ShardedIndexOptions index_options;
    index_options.shard_count = 3;
    PcorEngine engine(grid_.dataset, **detector, VerifierOptions{},
                      index_options);

    const PcorOptions options = BaseOptions();
    Rng serial_rng(777);
    auto reference = engine.Release(grid_.v_row, options, &serial_rng);

    Result<PcorRelease> from_worker = Status::Internal("never ran");
    ThreadPool pool(2);
    pool.Submit([&] {
      Rng rng(777);
      from_worker = engine.Release(grid_.v_row, options, &rng);
    });
    pool.Wait();

    ASSERT_EQ(reference.ok(), from_worker.ok())
        << name << ": " << from_worker.status().ToString();
    if (reference.ok()) {
      SCOPED_TRACE(name);
      ExpectSameRelease(*reference, *from_worker);
    }
  }
}

/// \brief `n` releases of the grid outlier on `threads`.
BatchReleaseReport Batch(const PcorEngine& engine, uint32_t v_row,
                         const PcorOptions& options, size_t n, uint64_t seed,
                         size_t threads) {
  std::vector<BatchRequest> requests(n);
  for (BatchRequest& request : requests) {
    request.v_row = v_row;
    request.options = options;
  }
  return engine.ReleaseBatch(std::span<const BatchRequest>(requests), options,
                             seed, threads);
}

TEST_F(IntraReleaseParallelTest, BatchFromInsideTheProbePoolCompletes) {
  // The batch fan-out runs on the probe pool itself, so a batch issued by
  // one of that pool's workers nests ParallelFor inside the pool it is
  // draining. Caller-drains keeps it deadlock-free at any pool size.
  ShardedIndexOptions index_options;
  index_options.shard_count = 3;
  PcorEngine engine(grid_.dataset, detector_, VerifierOptions{},
                    index_options);
  const auto serial =
      Batch(engine, grid_.v_row, BaseOptions(), 12, /*seed=*/91, 1);
  ASSERT_EQ(serial.failures, 0u);

  ThreadPool* pool = engine.probe().probe_pool();
  ASSERT_NE(pool, nullptr);
  BatchReleaseReport from_worker;
  pool->Submit([&] {
    from_worker =
        Batch(engine, grid_.v_row, BaseOptions(), 12, /*seed=*/91, 4);
  });
  pool->Wait();
  ExpectSameBatch(serial, from_worker);
}

TEST_F(IntraReleaseParallelTest, ConcurrentBatchesShareThePoolSafely) {
  // Four callers fan their batches out on the one engine pool at once;
  // each must match the 1-thread batch exactly.
  PcorEngine engine(grid_.dataset, detector_);
  const auto serial =
      Batch(engine, grid_.v_row, BaseOptions(), 10, /*seed=*/92, 1);
  ASSERT_EQ(serial.failures, 0u);

  std::vector<BatchReleaseReport> reports(4);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < reports.size(); ++c) {
    callers.emplace_back([&, c] {
      reports[c] =
          Batch(engine, grid_.v_row, BaseOptions(), 10, /*seed=*/92, 4);
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t c = 0; c < reports.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "caller " << c);
    ExpectSameBatch(serial, reports[c]);
  }
}

}  // namespace
}  // namespace pcor
