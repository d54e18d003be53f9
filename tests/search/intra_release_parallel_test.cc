// Intra-release parallelism: the PcorOptions::intra_release_threads knob
// and the engine's sharded index must be pure latency levers — the released
// context and every deterministic release field are bit-identical for any
// thread count and shard count. Also the detector thread_local regression:
// releases initiated from pool workers nest ParallelFor on the engine's
// probe pool, running detector code (with its per-thread scratch buffers)
// on worker threads, and must still match serial main-thread output
// exactly (see the scratch-discipline contract in outlier/detector.h).
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

TEST_F(IntraReleaseParallelTest, ThreadCountsAreBitIdentical) {
  PcorEngine engine(grid_.dataset, detector_);
  PcorOptions serial = BaseOptions();
  serial.intra_release_threads = 1;
  Rng serial_rng(123);
  auto reference = engine.Release(grid_.v_row, serial, &serial_rng);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t threads : {size_t{2}, size_t{4}, size_t{0}}) {
    PcorOptions options = BaseOptions();
    options.intra_release_threads = threads;
    Rng rng(123);
    auto release = engine.Release(grid_.v_row, options, &rng);
    ASSERT_TRUE(release.ok())
        << "threads=" << threads << ": " << release.status().ToString();
    ExpectSameRelease(*reference, *release);
  }
}

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
    options.intra_release_threads = 2;
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
  // parallel sharded release from inside a foreign ThreadPool worker (so
  // detector thread_local buffers are exercised on nested worker threads)
  // and demand exact agreement with a serial main-thread release.
  for (const std::string& name : RegisteredDetectorNames()) {
    auto detector = MakeDetector(name);
    ASSERT_TRUE(detector.ok()) << name;
    ShardedIndexOptions index_options;
    index_options.shard_count = 3;
    PcorEngine engine(grid_.dataset, **detector, VerifierOptions{},
                      index_options);

    PcorOptions serial = BaseOptions();
    serial.intra_release_threads = 1;
    Rng serial_rng(777);
    auto reference = engine.Release(grid_.v_row, serial, &serial_rng);

    PcorOptions parallel = BaseOptions();
    parallel.intra_release_threads = 3;
    Result<PcorRelease> from_worker = Status::Internal("never ran");
    ThreadPool pool(2);
    pool.Submit([&] {
      Rng rng(777);
      from_worker = engine.Release(grid_.v_row, parallel, &rng);
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

TEST_F(IntraReleaseParallelTest, BatchCarriesTheKnobPerRequest) {
  // intra_release_threads rides BatchRequest::options like every other
  // per-request field, and batch-level x intra-release nesting (batch
  // workers opening scoring loops on the probe pool) keeps every entry
  // bit-identical to the all-serial run.
  PcorEngine engine(grid_.dataset, detector_);
  std::vector<BatchRequest> requests(6);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].v_row = grid_.v_row;
    PcorOptions options = BaseOptions();
    options.intra_release_threads = (i % 3 == 0) ? 2 : 1;
    requests[i].options = options;
  }
  const auto serial = engine.ReleaseBatch(
      std::span<const BatchRequest>(requests), BaseOptions(), /*seed=*/55,
      /*num_threads=*/1);
  const auto parallel = engine.ReleaseBatch(
      std::span<const BatchRequest>(requests), BaseOptions(), /*seed=*/55,
      /*num_threads=*/3);
  ExpectSameBatch(serial, parallel);
}

/// \brief `n` releases of the grid outlier on `threads`, each entry nesting
/// a 2-thread scoring loop on the engine's pool.
BatchReleaseReport NestedBatch(const PcorEngine& engine, uint32_t v_row,
                               PcorOptions options, size_t n, uint64_t seed,
                               size_t threads) {
  options.intra_release_threads = 2;
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
      NestedBatch(engine, grid_.v_row, BaseOptions(), 12, /*seed=*/91, 1);
  ASSERT_EQ(serial.failures, 0u);

  ThreadPool* pool = engine.probe().probe_pool();
  ASSERT_NE(pool, nullptr);
  BatchReleaseReport from_worker;
  pool->Submit([&] {
    from_worker =
        NestedBatch(engine, grid_.v_row, BaseOptions(), 12, /*seed=*/91, 4);
  });
  pool->Wait();
  ExpectSameBatch(serial, from_worker);
}

TEST_F(IntraReleaseParallelTest, ConcurrentBatchesShareThePoolSafely) {
  // Four callers fan their batches out on the one engine pool at once;
  // each must match the 1-thread batch exactly.
  PcorEngine engine(grid_.dataset, detector_);
  const auto serial =
      NestedBatch(engine, grid_.v_row, BaseOptions(), 10, /*seed=*/92, 1);
  ASSERT_EQ(serial.failures, 0u);

  std::vector<BatchReleaseReport> reports(4);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < reports.size(); ++c) {
    callers.emplace_back([&, c] {
      reports[c] =
          NestedBatch(engine, grid_.v_row, BaseOptions(), 10, /*seed=*/92, 4);
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
