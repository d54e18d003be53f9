// Population-engine micro-benchmark — the bitmap-index-vs-naive row-scan
// ablation from DESIGN.md, self-contained (no external benchmark library)
// so the CI bench-json job can run it and collect its lines into the same
// BENCH_results.json artifact as the million-row numbers.
//
// Emits one validated BENCH_JSON probe line per backend — naive row scan,
// bitmap index — over an identical context mix, plus a build/memory line
// for the index. The index line doubles as the single-threaded
// single-shard baseline next to million_rows_sharded in the artifact.
// Index counts are checked against the naive row scan before timing; a
// mismatch exits non-zero.
//
// Two micro_population_view lines time materialization — ViewOf: the
// population bitmap, then its row ids and metric values — over the
// single-segment dense index and over an uneven 8-segment
// ShardedPopulationIndex whose boundaries fall mid-word. Both views are
// checked against the naive row scan's ids and metric values first; any
// difference exits non-zero.
//
// Scaling knobs (CI smoke-runs at a fraction of the defaults):
//   PCOR_MICRO_ROWS      dataset rows    (default 50,000)
//   PCOR_MICRO_CONTEXTS  probe contexts  (default 200)
//   PCOR_SEED            dataset + context seed
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/common/threading.h"
#include "src/context/sharded_population_index.h"
#include "src/data/salary_generator.h"

using namespace pcor;
using namespace pcor::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ContextVec RandomContext(const Schema& schema, double density, Rng* rng) {
  ContextVec c(schema.total_values());
  for (size_t bit = 0; bit < c.num_bits(); ++bit) {
    if (rng->NextBernoulli(density)) c.Set(bit);
  }
  return c;
}

ContextVec RandomSingletonContext(const Schema& schema, Rng* rng) {
  ContextVec c(schema.total_values());
  size_t base = 0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const size_t domain = schema.attribute(a).domain_size();
    c.Set(base + rng->NextBounded(domain));
    base += domain;
  }
  return c;
}

struct Timing {
  double probes = 0.0;
  double wall_s = 0.0;
  double probes_per_s = 0.0;
  double ns_per_probe = 0.0;
};

// Pass-doubling timer: repeats `probe_all` until the run is long enough to
// time, like the million-row bench.
template <typename ProbeAll>
Timing TimeProbes(size_t contexts_per_pass, const ProbeAll& probe_all) {
  Timing timing;
  size_t passes = 1;
  while (true) {
    const double t0 = Now();
    for (size_t pass = 0; pass < passes; ++pass) probe_all();
    timing.wall_s = Now() - t0;
    if (timing.wall_s >= 0.3 || passes >= 256) break;
    passes *= 2;
  }
  timing.probes = static_cast<double>(passes * contexts_per_pass);
  timing.probes_per_s = timing.probes / timing.wall_s;
  timing.ns_per_probe = 1e9 * timing.wall_s / timing.probes;
  return timing;
}

/// \brief Uneven seal-style layout: 8 segments over `*dataset` (not owned)
/// cut at fixed fractions of the rows, every cut odd so each interior
/// boundary lands mid-word.
SegmentList UnevenSegments(const Dataset& dataset) {
  const std::shared_ptr<const Dataset> rows(std::shared_ptr<void>(),
                                            &dataset);
  const double cuts[] = {0.04, 0.13, 0.29, 0.37, 0.52, 0.68, 0.9};
  SegmentList segments;
  uint32_t begin = 0;
  for (const double cut : cuts) {
    const auto end = std::max(
        begin, static_cast<uint32_t>(cut * dataset.num_rows()) | 1u);
    segments.push_back(MakeSegment(rows, begin, end));
    begin = end;
  }
  segments.push_back(MakeSegment(rows, begin));
  return segments;
}

}  // namespace

int main() {
  const size_t rows = strings::EnvSizeOr("PCOR_MICRO_ROWS", 50'000);
  const size_t num_contexts = strings::EnvSizeOr("PCOR_MICRO_CONTEXTS", 200);
  const uint64_t seed = strings::EnvSizeOr("PCOR_SEED", 2021);

  SalaryDatasetSpec spec = ReducedSalarySpec();
  spec.num_rows = rows;
  spec.num_planted = rows / 500 + 1;
  spec.seed = seed;
  auto generated = GenerateSalaryDataset(spec);
  if (!generated.ok()) {
    std::printf("dataset: %s\n", generated.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = generated->dataset;
  const Schema& schema = dataset.schema();
  std::printf("micro population: %zu rows, %zu contexts, t=%zu values\n",
              rows, num_contexts, schema.total_values());

  double t0 = Now();
  const PopulationIndex dense(dataset);
  const double dense_build_s = Now() - t0;

  // Same probe mix as the million-row bench: half exact contexts (the
  // search frontier's shape), half random multi-value contexts.
  Rng rng(seed + 1);
  std::vector<ContextVec> contexts;
  contexts.reserve(num_contexts);
  for (size_t i = 0; i < num_contexts; ++i) {
    if (i % 2 == 0) {
      contexts.push_back(RandomSingletonContext(schema, &rng));
    } else {
      contexts.push_back(
          RandomContext(schema, i % 4 == 1 ? 0.5 : 0.25, &rng));
    }
  }

  // Single-threaded like every other line here: the 1-worker pool keeps
  // segment sub-probes on the calling thread at any row count.
  const ShardedPopulationIndex segmented(schema, UnevenSegments(dataset),
                                         std::make_shared<ThreadPool>(1));

  // Equivalence gate before timing: the index must report the naive row
  // scan's count on every context, and the single-segment and segmented
  // views the scan's row ids and metric.
  size_t mismatches = 0;
  size_t view_rows = 0;  // rows one pass over the contexts materializes
  PopulationScratch scratch;
  std::vector<uint32_t> naive_ids;
  std::vector<double> naive_metric;
  for (const ContextVec& c : contexts) {
    naive_ids.clear();
    naive_metric.clear();
    for (uint32_t row = 0; row < dataset.num_rows(); ++row) {
      if (context_ops::ContainsRow(schema, dataset, row, c)) {
        naive_ids.push_back(row);
        naive_metric.push_back(dataset.metric(row));
      }
    }
    const size_t count = naive_ids.size();
    view_rows += count;
    if (dense.PopulationCount(c) != count) {
      ++mismatches;
      std::printf("EQUIVALENCE MISMATCH: %s\n", c.ToBitString().c_str());
    }
    for (const PopulationProbe* probe :
         {static_cast<const PopulationProbe*>(&dense),
          static_cast<const PopulationProbe*>(&segmented)}) {
      const PopulationView view = probe->ViewOf(c, &scratch);
      if (!std::equal(view.row_ids().begin(), view.row_ids().end(),
                      naive_ids.begin(), naive_ids.end()) ||
          !std::equal(view.metric().begin(), view.metric().end(),
                      naive_metric.begin(), naive_metric.end())) {
        ++mismatches;
        std::printf("VIEW MISMATCH (%s): %s\n",
                    probe == &dense ? "single" : "segmented",
                    c.ToBitString().c_str());
      }
    }
  }
  if (mismatches != 0) {
    std::printf("FAILED: %zu mismatches against the naive row scan\n",
                mismatches);
    return 1;
  }
  std::printf("equivalence: %zu counts and views identical to the naive "
              "row scan\n",
              contexts.size());

  const Timing naive = TimeProbes(contexts.size(), [&] {
    for (const ContextVec& c : contexts) {
      size_t count = 0;
      for (uint32_t row = 0; row < dataset.num_rows(); ++row) {
        if (context_ops::ContainsRow(schema, dataset, row, c)) ++count;
      }
      volatile size_t sink = count;
      (void)sink;
    }
  });
  const Timing dense_probe = TimeProbes(contexts.size(), [&] {
    for (const ContextVec& c : contexts) {
      volatile size_t sink = dense.PopulationCount(c);
      (void)sink;
    }
  });

  const auto time_views = [&](const PopulationProbe& probe) {
    return TimeProbes(contexts.size(), [&] {
      for (const ContextVec& c : contexts) {
        volatile size_t sink = probe.ViewOf(c, &scratch).size();
        (void)sink;
      }
    });
  };
  const Timing single_view = time_views(dense);
  const Timing segmented_view = time_views(segmented);

  std::printf("naive:      %.0f probes/s (%.0f ns/probe)\n",
              naive.probes_per_s, naive.ns_per_probe);
  std::printf("dense:      %.0f probes/s (%.0f ns/probe, x%.1f vs naive)\n",
              dense_probe.probes_per_s, dense_probe.ns_per_probe,
              dense_probe.probes_per_s / naive.probes_per_s);

  const double rows_per_view =
      static_cast<double>(view_rows) / static_cast<double>(contexts.size());
  std::printf("view, 1 segment:  %.0f ns/view, %.0f rows/s\n",
              single_view.ns_per_probe,
              single_view.probes_per_s * rows_per_view);
  std::printf("view, %zu segments: %.0f ns/view, %.0f rows/s\n",
              segmented.segment_count(), segmented_view.ns_per_probe,
              segmented_view.probes_per_s * rows_per_view);

  const PopulationIndexStats dense_stats = dense.MemoryStats();

  BenchJsonEmitter emitter;
  const auto emit_probe_line = [&](const char* storage, const Timing& t) {
    emitter.Emit(strings::Format(
        "{\"bench\":\"micro_population\",\"storage\":\"%s\",\"rows\":%zu,"
        "\"contexts\":%zu,\"probes\":%.0f,\"wall_s\":%.4f,"
        "\"probes_per_s\":%.1f,\"ns_per_probe\":%.1f}",
        storage, rows, num_contexts, t.probes, t.wall_s, t.probes_per_s,
        t.ns_per_probe));
  };
  emit_probe_line("naive", naive);
  emit_probe_line("dense", dense_probe);
  const auto emit_view_line = [&](const char* layout, size_t segments,
                                  const Timing& t) {
    emitter.Emit(strings::Format(
        "{\"bench\":\"micro_population_view\",\"layout\":\"%s\","
        "\"segments\":%zu,\"rows\":%zu,\"contexts\":%zu,"
        "\"rows_per_view\":%.1f,\"views\":%.0f,\"wall_s\":%.4f,"
        "\"ns_per_view\":%.1f,\"rows_per_s\":%.1f}",
        layout, segments, rows, num_contexts, rows_per_view, t.probes,
        t.wall_s, t.ns_per_probe, t.probes_per_s * rows_per_view));
  };
  emit_view_line("single", 1, single_view);
  emit_view_line("segmented", segmented.segment_count(), segmented_view);
  emitter.Emit(strings::Format(
      "{\"bench\":\"micro_population_build\",\"rows\":%zu,"
      "\"dense_build_s\":%.4f,\"dense_bytes\":%zu}",
      rows, dense_build_s, dense_stats.bitmap_bytes));

  // Sanity bar, never relaxed: if the bitmap index cannot beat a naive
  // O(rows) scan per probe, something is deeply wrong with the build.
  bool failed = !emitter.ok();
  if (dense_probe.probes_per_s <= naive.probes_per_s) {
    std::printf("FAILED: the index is no faster than the naive scan\n");
    failed = true;
  }
  std::printf("%s\n", failed ? "RESULT: FAIL" : "RESULT: OK");
  return failed ? 1 : 0;
}
