// Streaming PCOR bench: epoch-snapshotted appends plus continual release
// over the reduced salary workload.
//
// Three phases, one BENCH_JSON line each (two for streaming_seal):
//   * `streaming_append` — stream the whole dataset through Append,
//     sealing every PCOR_STREAM_SEAL_EVERY rows; appends/s INCLUDES the
//     periodic incremental (segmented) seals — the honest cost of the
//     default seal path (see docs/streaming.md).
//   * `streaming_release` — T = PCOR_STREAM_RELEASES continual releases
//     against the sealed tip via Pin()->engine->Release, each charged its
//     total_epsilon to a BudgetAccountant first, reporting releases/s,
//     the memo invalidation count and the ledger's epsilon spent.
//   * `streaming_seal` — seals/s at PCOR_STREAM_SEAL_EPOCHS (default 64)
//     evenly-sized epochs, segmented (default compaction) vs copy-on-seal
//     (max_segments = 1), timing SealEpoch calls only;
//     one line per mode plus the speedup.
//
// Enforced acceptance bars (exit non-zero on violation):
//   * every sealed row lands: the final epoch equals the dataset size;
//   * every continual release succeeds (the planted outliers verify at
//     the tip epoch);
//   * segmented seals/s >= 2x copy-on-seal seals/s whenever the run seals
//     >= 64 epochs (PCOR_RELAX_STREAMING=1 downgrades to a warning for
//     noisy/smoke environments);
//   * NEVER RELAXED: both seal modes release bit-identically from their
//     tips under the same seed — the segment layout may never move an
//     answer;
//   * NEVER RELAXED: the ledger's TotalSpent() equals the sum of the
//     releases' own epsilon_spent to within summation ulp — what admission
//     charges (total_epsilon) must be what the Epsilon1ForTotal /
//     TotalForEpsilon1 schedule reports as spent. Only the seals/s bar is
//     timing; the equivalence and arithmetic bars always hold.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/common/timer.h"
#include "src/search/streaming.h"
#include "src/serve/budget_accountant.h"

using namespace pcor;
using namespace pcor::bench;

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.2);
  PrintEnv(env,
           "streaming PCOR: epoch-snapshotted appends + continual release "
           "(BFS, eps=0.2, n=20, lof detector)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;
  const Dataset& full = setup->workload.data.dataset;

  const size_t seal_every =
      std::max<size_t>(64, strings::EnvSizeOr("PCOR_STREAM_SEAL_EVERY", 2048));
  const size_t releases_target = std::max<size_t>(
      8, strings::EnvSizeOr("PCOR_STREAM_RELEASES", 4 * env.reps));

  PcorOptions release;
  release.sampler = SamplerKind::kBfs;
  release.num_samples = 20;
  release.total_epsilon = 0.2;

  BenchJsonEmitter emitter;
  bool ok = true;

  // Phase 1: appends + periodic seals.
  StreamingPcorEngine stream(full.schema(), *setup->detector);
  WallTimer append_timer;
  for (size_t r = 0; r < full.num_rows(); ++r) {
    std::vector<uint32_t> codes(full.num_attributes());
    for (size_t a = 0; a < full.num_attributes(); ++a) {
      codes[a] = full.code(r, a);
    }
    Status appended = stream.Append(codes, full.metric(r));
    if (!appended.ok()) {
      std::printf("append %zu: %s\n", r, appended.ToString().c_str());
      return 1;
    }
    if ((r + 1) % seal_every == 0) stream.SealEpoch();
  }
  const uint64_t final_epoch = stream.SealEpoch();
  const double append_wall = append_timer.ElapsedSeconds();
  const StreamingStats after_append = stream.stats();
  const double appends_per_s =
      static_cast<double>(full.num_rows()) / std::max(append_wall, 1e-9);
  report::SectionHeader("streaming appends (periodic seals included)");
  std::printf("%zu rows in %.3fs (%.0f appends/s), %llu seals of <= %zu "
              "rows, final epoch %llu\n",
              full.num_rows(), append_wall, appends_per_s,
              static_cast<unsigned long long>(after_append.seals), seal_every,
              static_cast<unsigned long long>(final_epoch));
  if (final_epoch != full.num_rows()) {
    std::printf("ERROR: final epoch %llu != %zu dataset rows\n",
                static_cast<unsigned long long>(final_epoch), full.num_rows());
    ok = false;
  }
  emitter.Emit(strings::Format(
      "{\"bench\":\"streaming_append\",\"rows\":%zu,\"seals\":%llu,"
      "\"seal_every\":%zu,\"wall_s\":%.6f,\"appends_per_s\":%.1f,"
      "\"final_epoch\":%llu,\"kernel_backend\":\"%s\"}",
      full.num_rows(), static_cast<unsigned long long>(after_append.seals),
      seal_every, append_wall, appends_per_s,
      static_cast<unsigned long long>(final_epoch),
      simd::ActiveBackendName()));

  // Phase 2: continual releases against the sealed tip. Each is charged
  // its total_epsilon before it runs, and the charge is kept if it fails,
  // as a streaming PcorServer charges at admission.
  BudgetAccountant ledger;
  WallTimer release_timer;
  size_t failures = 0;
  double eps_sum = 0.0;
  for (size_t t = 0; t < releases_target; ++t) {
    const uint32_t v_row = setup->outliers[t % setup->outliers.size()];
    ledger.Charge("owner", release.total_epsilon).CheckOK();
    Rng rng(env.seed + t);
    auto released = stream.Pin()->engine->Release(v_row, release, &rng);
    if (!released.ok()) {
      ++failures;
      continue;
    }
    eps_sum += released->epsilon_spent;
  }
  const double release_wall = release_timer.ElapsedSeconds();
  const StreamingStats stats = stream.stats();
  const size_t releases = releases_target - failures;
  const double spent = ledger.TotalSpent();
  const double releases_per_s =
      static_cast<double>(releases) / std::max(release_wall, 1e-9);
  report::SectionHeader(
      "continual release (as-of-now, sequentially composed)");
  std::printf("%zu releases in %.3fs (%.1f releases/s), %zu failures, "
              "%zu memo invalidations across seals, epsilon spent %.4f\n",
              releases, release_wall, releases_per_s, failures,
              stats.cache_invalidations, spent);
  if (failures != 0) {
    std::printf("ERROR: %zu continual releases failed (planted outliers "
                "must verify at the tip epoch)\n",
                failures);
    ok = false;
  }
  // Never relaxed: both sides add the same releases in the same order, so
  // anything beyond summation ulp is a charge that differs from what the
  // release reports as spent (or a release that failed and kept its charge).
  const double ulp_bound = static_cast<double>(releases) *
                           std::numeric_limits<double>::epsilon() * eps_sum;
  if (std::fabs(spent - eps_sum) > ulp_bound) {
    std::printf("ERROR: charged epsilon %.12f != sum of release epsilons "
                "%.12f (never relaxed)\n",
                spent, eps_sum);
    ok = false;
  }
  emitter.Emit(strings::Format(
      "{\"bench\":\"streaming_release\",\"releases\":%zu,\"failures\":%zu,"
      "\"wall_s\":%.6f,\"releases_per_s\":%.2f,\"epoch\":%llu,"
      "\"cache_invalidations\":%zu,\"epsilon_spent\":%.4f,"
      "\"kernel_backend\":\"%s\"}",
      releases, failures, release_wall, releases_per_s,
      static_cast<unsigned long long>(stats.epoch), stats.cache_invalidations,
      spent, simd::ActiveBackendName()));

  // Phase 3: seal cost, segmented vs copy-on-seal. Same rows, same epoch
  // boundaries, same everything except max_segments (copy-on-seal is
  // max_segments = 1);
  // only the SealEpoch calls are timed. The equivalence gate then demands
  // bit-identical releases from both tips — never relaxed.
  const size_t seal_epochs = std::max<size_t>(
      8, strings::EnvSizeOr("PCOR_STREAM_SEAL_EPOCHS", 64));
  const size_t rows_per_epoch =
      std::max<size_t>(1, full.num_rows() / seal_epochs);
  const bool relax_streaming =
      strings::EnvSizeOr("PCOR_RELAX_STREAMING", 0) != 0;
  report::SectionHeader("seal cost (segmented vs copy-on-seal)");
  double seals_per_s_by_mode[2] = {0.0, 0.0};
  std::shared_ptr<const EpochSnapshot> tip_by_mode[2];
  uint64_t seals_done = 0;
  for (const bool segmented : {true, false}) {
    StreamingPcorEngine sealer(
        full.schema(), *setup->detector,
        segmented ? StreamingPcorEngine::kDefaultMaxSegments : 1);
    double seal_wall = 0.0;
    seals_done = 0;
    std::vector<uint32_t> codes(full.num_attributes());
    for (size_t r = 0; r < full.num_rows(); ++r) {
      for (size_t a = 0; a < full.num_attributes(); ++a) {
        codes[a] = full.code(r, a);
      }
      sealer.Append(codes, full.metric(r)).CheckOK();
      if ((r + 1) % rows_per_epoch == 0 || r + 1 == full.num_rows()) {
        WallTimer seal_timer;
        sealer.SealEpoch();
        seal_wall += seal_timer.ElapsedSeconds();
        ++seals_done;
      }
    }
    const StreamingStats seal_stats = sealer.stats();
    const double seals_per_s =
        static_cast<double>(seals_done) / std::max(seal_wall, 1e-9);
    seals_per_s_by_mode[segmented ? 0 : 1] = seals_per_s;
    tip_by_mode[segmented ? 0 : 1] = sealer.Pin();
    const char* mode = segmented ? "segmented" : "copy_on_seal";
    std::printf("%s: %llu seals of ~%zu rows in %.3fs (%.1f seals/s), "
                "%zu segments at tip, %llu compactions\n",
                mode, static_cast<unsigned long long>(seals_done),
                rows_per_epoch, seal_wall, seals_per_s, seal_stats.segments,
                static_cast<unsigned long long>(seal_stats.compactions));
    emitter.Emit(strings::Format(
        "{\"bench\":\"streaming_seal\",\"mode\":\"%s\",\"rows\":%zu,"
        "\"seals\":%llu,\"rows_per_epoch\":%zu,\"seal_wall_s\":%.6f,"
        "\"seals_per_s\":%.2f,\"tip_segments\":%zu,\"compactions\":%llu,"
        "\"kernel_backend\":\"%s\"}",
        mode, full.num_rows(), static_cast<unsigned long long>(seals_done),
        rows_per_epoch, seal_wall, seals_per_s, seal_stats.segments,
        static_cast<unsigned long long>(seal_stats.compactions),
        simd::ActiveBackendName()));
  }

  // Equivalence gate: identical seed, identical targets, the two tips must
  // release identically. Arithmetic, never relaxed.
  {
    std::vector<uint32_t> targets(setup->outliers.begin(),
                                  setup->outliers.end());
    const BatchReleaseReport seg = tip_by_mode[0]->engine->ReleaseBatch(
        std::span<const uint32_t>(targets), release, env.seed, 1);
    const BatchReleaseReport cow = tip_by_mode[1]->engine->ReleaseBatch(
        std::span<const uint32_t>(targets), release, env.seed, 1);
    size_t mismatches = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      const PcorRelease& a = seg.entries[i].release;
      const PcorRelease& b = cow.entries[i].release;
      if (seg.entries[i].status.ok() != cow.entries[i].status.ok() ||
          a.context != b.context || a.description != b.description ||
          a.epsilon_spent != b.epsilon_spent ||
          a.num_candidates != b.num_candidates ||
          a.utility_score != b.utility_score) {
        ++mismatches;
      }
    }
    if (mismatches != 0) {
      std::printf("ERROR: %zu of %zu releases differ between segmented and "
                  "copy-on-seal tips (never relaxed)\n",
                  mismatches, targets.size());
      ok = false;
    } else {
      std::printf("equivalence gate: %zu/%zu releases bit-identical across "
                  "seal modes\n",
                  targets.size(), targets.size());
    }
  }

  const double seal_speedup =
      seals_per_s_by_mode[1] > 0.0
          ? seals_per_s_by_mode[0] / seals_per_s_by_mode[1]
          : 0.0;
  std::printf("segmented/copy-on-seal seal throughput: %.2fx\n",
              seal_speedup);
  emitter.Emit(strings::Format(
      "{\"bench\":\"streaming_seal\",\"mode\":\"speedup\",\"seals\":%llu,"
      "\"segmented_seals_per_s\":%.2f,\"copy_seals_per_s\":%.2f,"
      "\"speedup\":%.3f,\"kernel_backend\":\"%s\"}",
      static_cast<unsigned long long>(seals_done), seals_per_s_by_mode[0],
      seals_per_s_by_mode[1], seal_speedup, simd::ActiveBackendName()));
  if (seals_done >= 64 && seal_speedup < 2.0) {
    if (relax_streaming) {
      std::printf("WARNING: segmented seal speedup %.2fx below the 2x bar "
                  "at %llu epochs (relaxed by PCOR_RELAX_STREAMING)\n",
                  seal_speedup, static_cast<unsigned long long>(seals_done));
    } else {
      std::printf("ERROR: segmented seal speedup %.2fx below the 2x bar at "
                  "%llu epochs (PCOR_RELAX_STREAMING=1 to relax)\n",
                  seal_speedup, static_cast<unsigned long long>(seals_done));
      ok = false;
    }
  }

  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  return (ok && emitter.ok()) ? 0 : 1;
}
