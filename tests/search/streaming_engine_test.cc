#include "src/search/streaming.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/salary_generator.h"
#include "src/search/pcor.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using testing_util::RowsOf;

// Release fields that must be bit-identical between an epoch-pinned
// streaming release and a fresh load of the same rows (wall time excluded).
void ExpectSameRelease(const PcorRelease& a, const PcorRelease& b) {
  EXPECT_EQ(a.context, b.context);
  EXPECT_EQ(a.starting_context, b.starting_context);
  EXPECT_EQ(a.description, b.description);
  EXPECT_DOUBLE_EQ(a.epsilon_spent, b.epsilon_spent);
  EXPECT_DOUBLE_EQ(a.epsilon1, b.epsilon1);
  EXPECT_EQ(a.num_candidates, b.num_candidates);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_DOUBLE_EQ(a.utility_score, b.utility_score);
  EXPECT_EQ(a.hit_probe_cap, b.hit_probe_cap);
  EXPECT_EQ(a.epoch, b.epoch);
}

PcorOptions BfsOptions() {
  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 8;
  options.total_epsilon = 0.4;
  return options;
}

class StreamingEngineTest : public ::testing::Test {
 protected:
  StreamingEngineTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        detector_(testing_util::MakeTestDetector()) {}

  testing_util::GridData grid_;
  ZscoreDetector detector_;
};

TEST_F(StreamingEngineTest, RejectsInvalidAppendsEagerly) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  EXPECT_TRUE(stream.Append({0, 1}, 100.0).ok());
  // Wrong arity and out-of-domain codes fail at Append, not at SealEpoch.
  EXPECT_TRUE(stream.Append({0}, 100.0).IsInvalidArgument());
  EXPECT_TRUE(stream.Append({0, 9}, 100.0).IsOutOfRange());
  EXPECT_EQ(stream.buffered_rows(), 1u);
  EXPECT_EQ(stream.SealEpoch(), 1u);
}

TEST_F(StreamingEngineTest, NoSealedEpochFailsTyped) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  EXPECT_EQ(stream.current_epoch(), 0u);
  EXPECT_EQ(stream.Pin()->engine, nullptr);
  // Sealing with an empty tail is a no-op at epoch 0 too.
  EXPECT_EQ(stream.SealEpoch(), 0u);
}

TEST_F(StreamingEngineTest, EpochPinnedBatchBitIdenticalToFreshLoad) {
  // Stream the classic fixture, seal, then keep appending and sealing:
  // the pinned epoch-k snapshot must keep releasing exactly like a fresh
  // load-once engine over those k rows.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ASSERT_TRUE(stream.AppendRows(RowsOf(grid_.dataset)).ok());
  const uint64_t epoch = stream.SealEpoch();
  ASSERT_EQ(epoch, grid_.dataset.num_rows());
  const std::shared_ptr<const EpochSnapshot> pinned = stream.Pin();

  // Grow the stream past the pin: a later epoch with different data.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(stream.Append({1, 1}, 100.0).ok());
  }
  ASSERT_GT(stream.SealEpoch(), epoch);
  ASSERT_EQ(stream.current_epoch(), epoch + 50);
  // The pin still sees exactly the sealed-at-k view.
  ASSERT_EQ(pinned->epoch, epoch);
  ASSERT_EQ(pinned->num_rows(), epoch);

  PcorEngine fresh(grid_.dataset, detector_);
  std::vector<uint32_t> rows(24, grid_.v_row);
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    const BatchReleaseReport want = fresh.ReleaseBatch(
        std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/2021, 1);
    const BatchReleaseReport got = pinned->engine->ReleaseBatch(
        std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/2021, threads);
    ASSERT_EQ(want.failures, 0u);
    ASSERT_EQ(got.failures, 0u);
    for (size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameRelease(got.entries[i].release, want.entries[i].release);
    }
  }
}

TEST_F(StreamingEngineTest, AppendsWhileBatchInFlightCannotPerturbIt) {
  // Fuzz the snapshot-consistency contract: a writer hammers appends and
  // seals while readers release against their pins; every pinned release
  // must match the fresh-load oracle for its epoch.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ASSERT_TRUE(stream.AppendRows(RowsOf(grid_.dataset)).ok());
  ASSERT_EQ(stream.SealEpoch(), grid_.dataset.num_rows());

  PcorEngine fresh(grid_.dataset, detector_);
  std::vector<uint32_t> rows(8, grid_.v_row);
  const BatchReleaseReport want = fresh.ReleaseBatch(
      std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/7, 1);
  ASSERT_EQ(want.failures, 0u);

  const std::shared_ptr<const EpochSnapshot> pinned = stream.Pin();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      stream.Append({i % 3, (i / 3) % 3, }, 95.0 + double(i % 11)).CheckOK();
      if (++i % 16 == 0) stream.SealEpoch();
    }
  });

  // At least 12 rounds, and more until the writer has sealed at least once:
  // on a loaded host it may not be scheduled during the first 12.
  for (int round = 0;
       round < 12 || stream.current_epoch() == grid_.dataset.num_rows();
       ++round) {
    const BatchReleaseReport got = pinned->engine->ReleaseBatch(
        std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/7, 4);
    ASSERT_EQ(got.failures, 0u);
    for (size_t i = 0; i < rows.size(); ++i) {
      ExpectSameRelease(got.entries[i].release, want.entries[i].release);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(stream.current_epoch(), grid_.dataset.num_rows());
}

TEST_F(StreamingEngineTest, SharedMemoNeverLeaksAcrossEpochs) {
  // Epoch A: the classic spread grid, V an outlier in most contexts.
  // Epoch B: enough extra (0, 0)-cluster spread to change which contexts
  // flag V. Pin both, share one memo, hammer interleaved queries from many
  // threads: every release must match an engine that never saw the other
  // epoch. A stale-epoch cache hit would break the comparison.
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ASSERT_TRUE(stream.AppendRows(RowsOf(grid_.dataset)).ok());
  ASSERT_EQ(stream.SealEpoch(), grid_.dataset.num_rows());
  const std::shared_ptr<const EpochSnapshot> epoch_a = stream.Pin();

  // Wild spread in group (a0, b1): contexts joining a0 with b1 stop
  // flagging V, while narrow contexts like {a0} x {b0} still do — a
  // different COE shape, not an empty one.
  Dataset grown(grid_.dataset);
  for (int i = 0; i < 72; ++i) {
    const Row extra{{0, 1}, 90.0 + 25.0 * double(i % 10)};
    grown.AppendRow(extra).CheckOK();
    ASSERT_TRUE(stream.Append(extra).ok());
  }
  ASSERT_EQ(stream.SealEpoch(), grown.num_rows());
  const std::shared_ptr<const EpochSnapshot> epoch_b = stream.Pin();
  ASSERT_NE(epoch_a->epoch, epoch_b->epoch);

  // Isolated single-epoch oracles (private memos).
  PcorEngine fresh_a(grid_.dataset, detector_);
  PcorEngine fresh_b(grown, detector_);
  std::vector<uint32_t> rows(6, grid_.v_row);
  const BatchReleaseReport want_a = fresh_a.ReleaseBatch(
      std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/13, 1);
  const BatchReleaseReport want_b = fresh_b.ReleaseBatch(
      std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/13, 1);
  ASSERT_EQ(want_a.failures, 0u);
  ASSERT_EQ(want_b.failures, 0u);
  // The epochs must actually disagree somewhere, or this test proves
  // nothing about staleness.
  bool differ = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (want_a.entries[i].release.context !=
        want_b.entries[i].release.context) {
      differ = true;
    }
  }
  ASSERT_TRUE(differ) << "fixture regression: epochs release identically";

  std::vector<std::thread> threads;
  for (size_t w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 6; ++round) {
        const bool use_a = (w + round) % 2 == 0;
        const EpochSnapshot& snap = use_a ? *epoch_a : *epoch_b;
        const BatchReleaseReport& want = use_a ? want_a : want_b;
        const BatchReleaseReport got = snap.engine->ReleaseBatch(
            std::span<const uint32_t>(rows), BfsOptions(), /*seed=*/13, 2);
        ASSERT_EQ(got.failures, 0u);
        for (size_t i = 0; i < rows.size(); ++i) {
          ExpectSameRelease(got.entries[i].release, want.entries[i].release);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Both epochs served from ONE memo (hits happened), yet never from each
  // other's entries.
  EXPECT_GT(stream.memo()->CacheStats().hits, 0u);
}

TEST_F(StreamingEngineTest, SealSweepsEpochsOutsideRetainWindow) {
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ASSERT_TRUE(stream.AppendRows(RowsOf(grid_.dataset)).ok());
  stream.SealEpoch();
  EXPECT_EQ(stream.stats().retained_epochs, 1u);
  // Warm the memo at epoch 1.
  Rng rng(3);
  ASSERT_TRUE(
      stream.Pin()->engine->Release(grid_.v_row, BfsOptions(), &rng).ok());
  const size_t first_epoch_entries =
      stream.memo()->CacheStats().resident_entries;
  ASSERT_GT(first_epoch_entries, 0u);
  auto append_and_seal = [&] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(stream.Append({1, 1}, 100.0).ok());
    }
    stream.SealEpoch();
  };

  // The retain window is the new epoch and the one before it: sealing
  // epoch 2 keeps epoch 1 warm.
  append_and_seal();
  EXPECT_EQ(stream.stats().retained_epochs, 2u);
  EXPECT_EQ(stream.memo()->CacheStats().invalidations, 0u);
  EXPECT_EQ(stream.memo()->CacheStats().resident_entries,
            first_epoch_entries);
  Rng rng2(4);
  ASSERT_TRUE(
      stream.Pin()->engine->Release(grid_.v_row, BfsOptions(), &rng2).ok());
  const size_t second_epoch_entries =
      stream.memo()->CacheStats().resident_entries - first_epoch_entries;
  ASSERT_GT(second_epoch_entries, 0u);

  // Sealing epoch 3 retires epoch 1's entries as INVALIDATIONS — distinct
  // from LRU pressure evictions, which stay zero here — and keeps epoch
  // 2's.
  append_and_seal();
  const LruCacheStats cache = stream.memo()->CacheStats();
  EXPECT_EQ(cache.invalidations, first_epoch_entries);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_EQ(cache.resident_entries, second_epoch_entries);
  EXPECT_EQ(stream.stats().cache_invalidations, first_epoch_entries);
}

// Appends `rows` one at a time, sealing after every row whose (1-based)
// position is in `seal_after`; always seals once more at the end. Returns
// the number of SealEpoch calls that advanced the epoch.
uint64_t StreamWithCadence(StreamingPcorEngine* stream,
                           const std::vector<Row>& rows,
                           const std::vector<size_t>& seal_after) {
  uint64_t seals = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    stream->Append(rows[r]).CheckOK();
    if (std::find(seal_after.begin(), seal_after.end(), r + 1) !=
        seal_after.end()) {
      stream->SealEpoch();
      ++seals;
    }
  }
  if (stream->buffered_rows() > 0) {
    stream->SealEpoch();
    ++seals;
  }
  return seals;
}

TEST_F(StreamingEngineTest, SegmentedSealsBitIdenticalAcrossCadences) {
  // The never-relaxed equivalence gate: for every seal cadence — one row
  // per epoch, bursty, one big seal — the segmented engine must release
  // exactly like a fresh load-once engine over the same rows, without
  // compaction, with it, and under copy-on-seal (max_segments = 1). The
  // cadence only changes the segment layout; answers may not move by a bit.
  const std::vector<Row> rows = RowsOf(grid_.dataset);
  std::vector<size_t> every_row, bursty;
  for (size_t r = 1; r <= rows.size(); ++r) every_row.push_back(r);
  bursty = {1, 2, 3, 11, 29};
  const std::vector<std::pair<const char*, std::vector<size_t>>> cadences = {
      {"seal_per_row", every_row}, {"bursty", bursty}, {"one_seal", {}}};

  PcorEngine fresh(grid_.dataset, detector_);
  std::vector<uint32_t> targets(12, grid_.v_row);
  const BatchReleaseReport want = fresh.ReleaseBatch(
      std::span<const uint32_t>(targets), BfsOptions(), /*seed=*/41, 1);
  ASSERT_EQ(want.failures, 0u);

  // The grid has fewer rows than kMinSegmentRows, so the doubling rule
  // never fires here: a bound of one segment per row leaves every seal its
  // own segment.
  ASSERT_LT(rows.size(), StreamingPcorEngine::kMinSegmentRows);
  for (const auto& [cadence_name, seal_after] : cadences) {
    const std::vector<std::pair<const char*, size_t>> policies = {
        {"raw", rows.size()},  // one segment per seal
        {"compacted", 4},
        {"copy_on_seal", 1}};  // one flat segment, rebuilt per seal
    for (const auto& [policy_name, max_segments] : policies) {
      SCOPED_TRACE(::testing::Message() << cadence_name << " " << policy_name);
      StreamingPcorEngine stream(testing_util::GridSchema(), detector_,
                                 max_segments);
      const uint64_t seals = StreamWithCadence(&stream, rows, seal_after);
      ASSERT_EQ(stream.current_epoch(), rows.size());
      const StreamingStats stats = stream.stats();
      EXPECT_EQ(stats.seals, seals);
      if (max_segments == rows.size()) {
        // No compaction: the segment layout IS the seal cadence.
        EXPECT_EQ(stats.segments, seals);
        EXPECT_EQ(stats.compactions, 0u);
      } else if (max_segments == 1) {
        EXPECT_EQ(stats.segments, 1u);
      }
      const BatchReleaseReport got = stream.Pin()->engine->ReleaseBatch(
          std::span<const uint32_t>(targets), BfsOptions(), /*seed=*/41, 4);
      ASSERT_EQ(got.failures, 0u);
      for (size_t i = 0; i < targets.size(); ++i) {
        SCOPED_TRACE(i);
        ExpectSameRelease(got.entries[i].release, want.entries[i].release);
      }
    }
  }
}

TEST_F(StreamingEngineTest, CompactionBoundsFanOutWithoutChangingAnswers) {
  // Seal-per-row with an aggressive policy: the fan-out bound must hold at
  // every epoch (not just the last), compactions must actually happen, and
  // RowAt must keep materializing the original rows through any layout.
  // One executor per stream: every epoch's probe — and so its engine's
  // batch fan-out — runs on the pool the stream created, across seals and
  // compactions alike.
  const std::vector<Row> rows = RowsOf(grid_.dataset);
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_,
                             /*max_segments=*/3);
  ThreadPool* const pool = [&] {
    stream.Append(rows[0]).CheckOK();
    stream.SealEpoch();
    return stream.Pin()->probe->probe_pool();
  }();
  ASSERT_NE(pool, nullptr);
  for (size_t r = 1; r < rows.size(); ++r) {
    stream.Append(rows[r]).CheckOK();
    stream.SealEpoch();
    EXPECT_LE(stream.stats().segments, 3u) << "after seal " << r + 1;
    EXPECT_EQ(stream.Pin()->engine->probe().probe_pool(), pool)
        << "after seal " << r + 1;
  }
  const StreamingStats stats = stream.stats();
  EXPECT_EQ(stats.epoch, rows.size());
  EXPECT_GT(stats.compactions, 0u);

  const std::shared_ptr<const EpochSnapshot> tip = stream.Pin();
  for (uint32_t r = 0; r < rows.size(); ++r) {
    const Row got = tip->RowAt(r);
    EXPECT_EQ(got.codes, rows[r].codes) << "row " << r;
    EXPECT_EQ(got.metric, rows[r].metric) << "row " << r;
  }
}

TEST_F(StreamingEngineTest, DoublingRuleMergesSmallSealsAtMinSegmentRows) {
  // A stream of a few thousand rows sealed in uneven ~100-row epochs, far
  // fewer seals than the default fan-out bound: every compaction here is
  // the doubling rule's. It must not fire while fewer than
  // kMinSegmentRows rows are sealed, must fold the whole small run into
  // one segment at the first seal that reaches them, and must keep the
  // segment count logarithmic-ish after that — without moving a release.
  const testing_util::GridData big =
      testing_util::MakeSpreadGridDataset(/*per_group=*/250);
  std::vector<Row> rows = RowsOf(big.dataset);
  // Interleave the groups so every epoch mixes contexts; V keeps its row.
  const Row v = rows[big.v_row];
  rows.erase(rows.begin() + big.v_row);
  Rng shuffle_rng(29);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[shuffle_rng.NextBounded(i)]);
  }
  const uint32_t v_row = static_cast<uint32_t>(rows.size() / 2);
  rows.insert(rows.begin() + v_row, v);
  ASSERT_GT(rows.size(), 3 * StreamingPcorEngine::kMinSegmentRows);

  constexpr size_t kMinRows = StreamingPcorEngine::kMinSegmentRows;
  constexpr size_t kMinEpochRows = 60;
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  Rng epoch_rng(31);
  size_t next = 0;
  bool fired = false;
  while (next < rows.size()) {
    const size_t take = std::min(
        rows.size() - next, kMinEpochRows + epoch_rng.NextBounded(81));
    ASSERT_TRUE(stream
                    .AppendRows(std::span<const Row>(rows).subspan(next, take))
                    .ok());
    next += take;
    const uint64_t epoch = stream.SealEpoch();
    const StreamingStats stats = stream.stats();
    SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
    ASSERT_LT(stats.seals, StreamingPcorEngine::kDefaultMaxSegments);
    if (epoch < kMinRows) {
      EXPECT_EQ(stats.compactions, 0u);
      EXPECT_EQ(stats.segments, stats.seals);
    } else if (!fired) {
      fired = true;
      EXPECT_EQ(stats.compactions, 1u);
      EXPECT_EQ(stats.segments, 1u);
    }
    // Every merged segment holds >= kMinRows rows, and the trailing small
    // run holds < kMinRows rows in epochs of >= kMinEpochRows.
    EXPECT_LE(stats.segments, epoch / kMinRows + kMinRows / kMinEpochRows + 1);
  }
  const StreamingStats stats = stream.stats();
  EXPECT_GE(stats.compactions, 2u);
  EXPECT_LT(stats.segments, stats.seals);

  Dataset loaded(testing_util::GridSchema());
  for (const Row& row : rows) loaded.AppendRow(row).CheckOK();
  PcorEngine fresh(loaded, detector_);
  std::vector<uint32_t> targets(8, v_row);
  const BatchReleaseReport want = fresh.ReleaseBatch(
      std::span<const uint32_t>(targets), BfsOptions(), /*seed=*/47, 1);
  const BatchReleaseReport got = stream.Pin()->engine->ReleaseBatch(
      std::span<const uint32_t>(targets), BfsOptions(), /*seed=*/47, 4);
  ASSERT_EQ(want.failures, 0u);
  ASSERT_EQ(got.failures, 0u);
  for (size_t i = 0; i < targets.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRelease(got.entries[i].release, want.entries[i].release);
  }
}

TEST_F(StreamingEngineTest, PinnedSnapshotSurvivesLaterCompactions) {
  // Pin an epoch, then keep sealing per-row under a policy that merges
  // constantly: structural sharing means the pin's segment list — and its
  // releases — must be exactly what they were at pin time.
  const std::vector<Row> rows = RowsOf(grid_.dataset);
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_,
                             /*max_segments=*/2);
  for (const Row& row : rows) {
    stream.Append(row).CheckOK();
    stream.SealEpoch();
  }
  const std::shared_ptr<const EpochSnapshot> pinned = stream.Pin();
  ASSERT_EQ(pinned->epoch, rows.size());
  const size_t pinned_segments = pinned->probe->segment_count();
  const uint64_t compactions_at_pin = stream.stats().compactions;

  // Every post-pin seal merges (max_segments = 2), rewriting the tip's
  // layout over and over — never the pin's.
  for (int i = 0; i < 24; ++i) {
    stream.Append({1, 1}, 100.0 + i).CheckOK();
    stream.SealEpoch();
  }
  ASSERT_GT(stream.stats().compactions, compactions_at_pin)
      << "fixture regression: the tail seals never compacted";
  // The pin's own layout is untouched by every later merge.
  EXPECT_EQ(pinned->probe->segment_count(), pinned_segments);
  for (uint32_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(pinned->RowAt(r).codes, rows[r].codes) << "row " << r;
  }

  PcorEngine fresh(grid_.dataset, detector_);
  std::vector<uint32_t> targets(8, grid_.v_row);
  const BatchReleaseReport want = fresh.ReleaseBatch(
      std::span<const uint32_t>(targets), BfsOptions(), /*seed=*/43, 1);
  const BatchReleaseReport got = pinned->engine->ReleaseBatch(
      std::span<const uint32_t>(targets), BfsOptions(), /*seed=*/43, 2);
  ASSERT_EQ(want.failures, 0u);
  ASSERT_EQ(got.failures, 0u);
  for (size_t i = 0; i < targets.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRelease(got.entries[i].release, want.entries[i].release);
  }
}

TEST_F(StreamingEngineTest, AppendRowsIsAllOrNothing) {
  // An invalid row mid-span must leave the tail untouched — no prefix of
  // the span may stay buffered (the bug this PR fixes: per-row locking
  // buffered everything before the bad row).
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  ASSERT_TRUE(stream.Append({0, 0}, 100.0).ok());
  ASSERT_EQ(stream.buffered_rows(), 1u);

  std::vector<Row> span = {Row{{0, 1}, 101.0}, Row{{1, 0}, 102.0},
                           Row{{0, 9}, 103.0},  // out of domain
                           Row{{1, 1}, 104.0}};
  EXPECT_TRUE(stream.AppendRows(span).IsOutOfRange());
  EXPECT_EQ(stream.buffered_rows(), 1u) << "span prefix leaked into tail";
  EXPECT_EQ(stream.stats().appends, 1u);

  // Wrong-arity rows fail the same way.
  span[2] = Row{{0}, 103.0};
  EXPECT_TRUE(stream.AppendRows(span).IsInvalidArgument());
  EXPECT_EQ(stream.buffered_rows(), 1u);

  // And the fixed span lands whole.
  span[2] = Row{{0, 2}, 103.0};
  ASSERT_TRUE(stream.AppendRows(span).ok());
  EXPECT_EQ(stream.buffered_rows(), 5u);
  EXPECT_EQ(stream.SealEpoch(), 5u);
}

TEST_F(StreamingEngineTest, RetainWindowTrackingStaysBoundedAtZero) {
  // Nothing sealed means nothing tracked; after that the tracked window
  // reports its actual size and never grows past two epochs (the
  // unbounded deque regression).
  StreamingPcorEngine stream(testing_util::GridSchema(), detector_);
  EXPECT_EQ(stream.stats().retained_epochs, 0u);
  ASSERT_TRUE(stream.Append({0, 1}, 100.0).ok());
  EXPECT_EQ(stream.stats().retained_epochs, 0u);
  for (int seal = 0; seal < 20; ++seal) {
    ASSERT_TRUE(stream.Append({uint32_t(seal) % 3, 1}, 100.0 + seal).ok());
    stream.SealEpoch();
    EXPECT_EQ(stream.stats().retained_epochs, seal == 0 ? 1u : 2u)
        << "seal " << seal;
  }
}

TEST_F(StreamingEngineTest, AppendsProgressWhileLargeSealInFlight) {
  // The seal-outside-lock fix: a seal over a large sealed history (worst
  // case: copy-on-seal, max_segments = 1, rebuilding everything) must not
  // block
  // concurrent appends. Count appends completed strictly while the seal is
  // still running — under the old whole-seal lock this count was 0.
  SalaryDatasetSpec spec;
  spec.num_rows = 60'000;
  spec.num_jobs = 16;
  spec.num_employers = 12;
  spec.num_years = 8;
  spec.seed = 777;
  auto generated = GenerateSalaryDataset(spec);
  ASSERT_TRUE(generated.ok());
  const std::vector<Row> rows = RowsOf(generated->dataset);

  StreamingPcorEngine stream(generated->dataset.schema(), detector_,
                             /*max_segments=*/1);  // copy-on-seal
  ASSERT_TRUE(stream.AppendRows(rows).ok());
  ASSERT_EQ(stream.SealEpoch(), rows.size());
  // Buffer a second large tail; sealing it re-merges all 120k rows.
  ASSERT_TRUE(stream.AppendRows(rows).ok());

  std::thread sealer([&] { stream.SealEpoch(); });
  uint64_t appends_during_seal = 0;
  while (stream.current_epoch() == rows.size()) {
    stream.Append(rows[appends_during_seal % rows.size()]).CheckOK();
    ++appends_during_seal;
  }
  sealer.join();
  // The loop's last append may have landed after the swap; everything
  // before it ran concurrently with the index build.
  EXPECT_GT(appends_during_seal, 1u)
      << "appends stalled behind an in-flight seal";
  // Nothing was lost: appends that raced ahead of the sealer's tail-swap
  // were sealed with it, the rest are buffered — sealing them makes every
  // appended row sealed exactly once.
  EXPECT_EQ(stream.SealEpoch(), 2 * rows.size() + appends_during_seal);
}

}  // namespace
}  // namespace pcor
