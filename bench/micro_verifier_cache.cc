// Micro-benchmark for the f_M verification hot path: the same deterministic
// release trace driven through OutlierVerifier caches with different
// policies — no cache, the pre-LRU wholesale-clear ablation, and the
// sharded LRU — at several memory budgets. The acceptance bar for the LRU
// refactor is beating wholesale-clear on hit rate at equal budget.
//
// Besides the ASCII table, every configuration emits one machine-readable
// `BENCH_JSON {...}` line so CI can start tracking the hot path over time.
//
// A last section times the warm hit itself on a fully warm memo, median
// and quartiles over repetitions: ns per OutlierPopulation call (mode
// "warm_hit"), and ns per neighbour when each walk step's neighbours go
// through one batched OutlierPopulations call (mode "warm_step") — the
// per-probe cost of a graph walk whose f_M is all hits, both ways.
#include <cinttypes>
#include <optional>
#include <utility>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/common/stats.h"
#include "src/common/timer.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

struct Ablation {
  const char* mode;    // "none" | "clear_all" | "sharded_lru"
  size_t budget_bytes; // 0 = unbounded / not applicable
  double hit_rate = 0.0;
  VerifierStats stats{};
  double seconds = 0.0;
};

double HitRate(const VerifierStats& stats) {
  const size_t probes = stats.cache_hits + stats.cache_misses;
  return probes == 0 ? 0.0
                     : static_cast<double>(stats.cache_hits) /
                           static_cast<double>(probes);
}

struct WarmHits {
  size_t lookups = 0;  // distinct probes in one pass
  size_t steps = 0;    // walk steps (one batched lookup each) in one pass
  size_t passes = 0;   // passes per repetition
  std::vector<double> ns_per_hit;   // one OutlierPopulation call per probe
  std::vector<double> ns_per_step;  // per probe, one batched call per step
  bool all_hits = false;
  size_t checksum = 0;
};

// Times f_M lookups on a warm, unbounded 4-shard memo. The probes are each
// released context and its Hamming-1 neighbours that still contain the
// released row: the contexts one walk step around that release looks up.
// Probes without the row stop at the row precheck, so they are left out.
// Each repetition times the probes once as single OutlierPopulation calls
// ("warm_hit") and once as one OutlierPopulations call per step
// ("warm_step"), interleaved so both see the same machine state.
WarmHits MeasureWarmHits(const Setup& setup, const std::vector<uint32_t>& rows,
                         const std::vector<ContextVec>& releases) {
  constexpr size_t kReps = 15;
  constexpr size_t kLookupsPerRep = 20'000;
  VerifierOptions options;
  options.max_cache_bytes = 0;
  options.num_shards = 4;
  PcorEngine engine(setup.workload.data.dataset, *setup.detector, options);
  const OutlierVerifier& verifier = engine.verifier();

  std::vector<std::vector<ContextVec>> steps(releases.size());
  WarmHits out;
  for (size_t i = 0; i < releases.size(); ++i) {
    ContextVec c = releases[i];
    for (size_t bit = 0; bit <= c.num_bits(); ++bit) {
      if (bit < c.num_bits()) c.Flip(bit);
      if (c.Covers(verifier.index().ExactContextOf(rows[i]))) {
        steps[i].push_back(c);
      }
      if (bit < c.num_bits()) c.Flip(bit);
    }
    out.lookups += steps[i].size();
  }
  out.steps = steps.size();
  if (out.lookups == 0) return out;
  std::vector<std::optional<size_t>> populations;
  for (size_t i = 0; i < steps.size(); ++i) {
    for (const ContextVec& c : steps[i]) verifier.OutlierPopulation(c, rows[i]);
  }

  out.passes = std::max<size_t>(1, kLookupsPerRep / out.lookups);
  const double timed_per_rep = static_cast<double>(out.passes * out.lookups);
  const VerifierStats before = verifier.Stats();
  for (size_t r = 0; r < kReps; ++r) {
    WallTimer single;
    for (size_t pass = 0; pass < out.passes; ++pass) {
      for (size_t i = 0; i < steps.size(); ++i) {
        for (const ContextVec& c : steps[i]) {
          out.checksum += verifier.OutlierPopulation(c, rows[i]).value_or(1);
        }
      }
    }
    out.ns_per_hit.push_back(single.ElapsedSeconds() * 1e9 / timed_per_rep);
    WallTimer batched;
    for (size_t pass = 0; pass < out.passes; ++pass) {
      for (size_t i = 0; i < steps.size(); ++i) {
        populations.resize(steps[i].size());
        verifier.OutlierPopulations(steps[i], rows[i], populations);
        for (const std::optional<size_t>& p : populations) {
          out.checksum += p.value_or(1);
        }
      }
    }
    out.ns_per_step.push_back(batched.ElapsedSeconds() * 1e9 / timed_per_rep);
  }
  const VerifierStats after = verifier.Stats();
  const size_t timed = 2 * kReps * out.passes * out.lookups;
  out.all_hits = after.cache_misses == before.cache_misses &&
                 after.cache_hits - before.cache_hits == timed;
  return out;
}

}  // namespace

int main() {
  BenchEnv env = ReadBenchEnv(/*default_scale=*/0.1);
  PrintEnv(env,
           "micro: verifier cache ablation (no cache vs. wholesale clear "
           "vs. sharded LRU; BFS, eps=0.2, n=20)");

  auto setup = MakeSalarySetup(env, "lof");
  if (!setup) return 1;

  const size_t kBatchSize =
      std::max<size_t>(100, env.reps * setup->outliers.size());
  std::vector<uint32_t> rows(kBatchSize);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = setup->outliers[i % setup->outliers.size()];
  }
  std::printf("trace: %zu releases over %zu distinct outliers, %zu rows\n",
              rows.size(), setup->outliers.size(),
              setup->workload.data.dataset.num_rows());

  PcorOptions options;
  options.sampler = SamplerKind::kBfs;
  options.num_samples = 20;
  options.total_epsilon = 0.2;

  // Budgets chosen to straddle the trace's working set: at the tight end
  // both policies shed constantly and the *policy* decides what survives.
  const std::vector<size_t> budgets = {32 << 10, 128 << 10, 1 << 20};

  std::vector<Ablation> ablations;
  ablations.push_back({"none", 0});
  for (size_t budget : budgets) ablations.push_back({"clear_all", budget});
  for (size_t budget : budgets) ablations.push_back({"sharded_lru", budget});
  ablations.push_back({"sharded_lru", 0});  // unbounded reference

  // All policies must release identically on every entry of the trace —
  // entry 0 runs on a near-cold cache, so only the tail would expose an
  // eviction bug.
  std::vector<ContextVec> reference_releases;
  bool identical = true;
  for (Ablation& ablation : ablations) {
    VerifierOptions verifier_options;
    verifier_options.max_cache_bytes = ablation.budget_bytes;
    if (std::string(ablation.mode) == "none") {
      verifier_options.enable_cache = false;
    } else if (std::string(ablation.mode) == "clear_all") {
      // The pre-LRU verifier: one shard, dropped wholesale when full.
      verifier_options.wholesale_clear = true;
      verifier_options.num_shards = 1;
    } else {
      // Pin the shard count: the auto default is one shard per hardware
      // thread, which would slice the per-shard budget differently across
      // machines and make the CI-gated hit-rate comparison non-portable.
      verifier_options.num_shards = 4;
    }
    PcorEngine engine(setup->workload.data.dataset, *setup->detector,
                      verifier_options);
    // Single-threaded so every configuration sees the exact same
    // deterministic probe sequence — hit rates are directly comparable.
    const BatchReleaseReport report = engine.ReleaseBatch(
        std::span<const uint32_t>(rows), options, env.seed,
        /*num_threads=*/1);
    ablation.stats = engine.verifier().Stats();
    ablation.hit_rate = HitRate(ablation.stats);
    ablation.seconds = report.seconds;
    if (report.failures != 0) {
      std::printf("ERROR: %zu failures under mode %s\n", report.failures,
                  ablation.mode);
      return 1;
    }
    if (reference_releases.empty()) {
      reference_releases.reserve(report.entries.size());
      for (const BatchEntry& entry : report.entries) {
        reference_releases.push_back(entry.release.context);
      }
    } else {
      for (size_t i = 0; i < report.entries.size(); ++i) {
        if (report.entries[i].release.context != reference_releases[i]) {
          identical = false;  // eviction must be answer-invariant
          break;
        }
      }
    }
  }

  BenchJsonEmitter emitter;
  TableRenderer table({"Policy", "Budget KiB", "Wall", "Hit rate", "f_evals",
                       "Evictions", "Resident KiB"});
  for (const Ablation& ablation : ablations) {
    table.AddRow(
        {ablation.mode,
         ablation.budget_bytes == 0
             ? std::string("inf")
             : strings::Format("%zu", ablation.budget_bytes >> 10),
         report::FormatRuntime(ablation.seconds),
         strings::Format("%.4f", ablation.hit_rate),
         strings::Format("%zu", ablation.stats.evaluations),
         strings::Format("%zu", ablation.stats.cache_evictions),
         strings::Format("%zu", ablation.stats.resident_bytes >> 10)});
    emitter.Emit(strings::Format(
        "{\"bench\":\"micro_verifier_cache\",\"mode\":\"%s\","
        "\"budget_bytes\":%zu,\"hits\":%zu,\"misses\":%zu,"
        "\"hit_rate\":%.6f,\"evictions\":%zu,\"resident_bytes\":%zu,"
        "\"f_evals\":%zu,\"wall_s\":%.6f,\"kernel_backend\":\"%s\"}",
        ablation.mode, ablation.budget_bytes, ablation.stats.cache_hits,
        ablation.stats.cache_misses, ablation.hit_rate,
        ablation.stats.cache_evictions, ablation.stats.resident_bytes,
        ablation.stats.evaluations, ablation.seconds,
        simd::ActiveBackendName()));
  }
  report::SectionHeader("f_M cache ablation");
  std::printf("%s", table.Render().c_str());

  const WarmHits warm = MeasureWarmHits(*setup, rows, reference_releases);
  const double warm_p50 = Percentile(warm.ns_per_hit, 0.5);
  const double warm_q1 = Percentile(warm.ns_per_hit, 0.25);
  const double warm_q3 = Percentile(warm.ns_per_hit, 0.75);
  const double step_p50 = Percentile(warm.ns_per_step, 0.5);
  const double step_q1 = Percentile(warm.ns_per_step, 0.25);
  const double step_q3 = Percentile(warm.ns_per_step, 0.75);
  report::SectionHeader("warm f_M hit (unbounded sharded LRU, 4 shards)");
  std::printf(
      "%zu probes in %zu steps x %zu passes x %zu reps (median "
      "[quartiles]):\n"
      "  one lookup per probe:   %.1f ns/hit [%.1f, %.1f]\n"
      "  one batch per step:     %.1f ns/hit [%.1f, %.1f]\n"
      "every lookup a hit: %s (checksum %zu)\n",
      warm.lookups, warm.steps, warm.passes, warm.ns_per_hit.size(), warm_p50,
      warm_q1, warm_q3, step_p50, step_q1, step_q3,
      warm.all_hits ? "yes" : "NO", warm.checksum);
  emitter.Emit(strings::Format(
      "{\"bench\":\"micro_verifier_cache\",\"mode\":\"warm_hit\","
      "\"lookups\":%zu,\"reps\":%zu,\"ns_per_hit\":%.3f,"
      "\"ns_per_hit_q1\":%.3f,\"ns_per_hit_q3\":%.3f,"
      "\"kernel_backend\":\"%s\"}",
      warm.lookups * warm.passes, warm.ns_per_hit.size(), warm_p50, warm_q1,
      warm_q3, simd::ActiveBackendName()));
  emitter.Emit(strings::Format(
      "{\"bench\":\"micro_verifier_cache\",\"mode\":\"warm_step\","
      "\"lookups\":%zu,\"steps\":%zu,\"reps\":%zu,"
      "\"ns_per_neighbour\":%.3f,\"ns_per_neighbour_q1\":%.3f,"
      "\"ns_per_neighbour_q3\":%.3f,\"single_ns_per_neighbour\":%.3f,"
      "\"kernel_backend\":\"%s\"}",
      warm.lookups * warm.passes, warm.steps * warm.passes,
      warm.ns_per_step.size(), step_p50, step_q1, step_q3, warm_p50,
      simd::ActiveBackendName()));

  // Acceptance: at equal budget, sharded LRU must not lose to wholesale
  // clears, and must win outright somewhere.
  bool lru_wins = false;
  bool lru_never_loses = true;
  for (size_t budget : budgets) {
    double clear_rate = 0.0, lru_rate = 0.0;
    for (const Ablation& ablation : ablations) {
      if (ablation.budget_bytes != budget) continue;
      if (std::string(ablation.mode) == "clear_all") {
        clear_rate = ablation.hit_rate;
      } else if (std::string(ablation.mode) == "sharded_lru") {
        lru_rate = ablation.hit_rate;
      }
    }
    if (lru_rate > clear_rate + 1e-9) lru_wins = true;
    if (lru_rate < clear_rate - 1e-9) lru_never_loses = false;
    std::printf("budget %6zu KiB: clear_all=%.4f sharded_lru=%.4f  %s\n",
                budget >> 10, clear_rate, lru_rate,
                lru_rate >= clear_rate ? "LRU >=" : "LRU LOSES");
  }
  report::Note(
      "equal-budget comparison; 'none' and the unbounded row bracket the "
      "achievable range");
  std::printf("answer invariance across policies: %s\n",
              identical ? "IDENTICAL" : "MISMATCH");
  std::printf("sharded LRU vs wholesale clear: %s\n",
              lru_wins && lru_never_loses ? "WINS" : "DOES NOT WIN");
  if (!emitter.ok()) {
    std::printf("BENCH_JSON validation failures: %zu\n", emitter.failures());
  }
  const bool ok = identical && lru_wins && lru_never_loses && warm.all_hits &&
                  emitter.ok();
  return ok ? 0 : 1;
}
