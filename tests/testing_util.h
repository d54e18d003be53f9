#pragma once

#include <condition_variable>
#include <mutex>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/random.h"
#include "src/context/context.h"
#include "src/data/dataset.h"
#include "src/data/salary_generator.h"
#include "src/outlier/zscore.h"

namespace pcor {
namespace testing_util {

/// Schema with two categorical attributes A (3 values) and B (3 values);
/// t = 6, m = 2.
inline Schema GridSchema() {
  Schema schema;
  schema.AddAttribute("A", {"a0", "a1", "a2"}).CheckOK();
  schema.AddAttribute("B", {"b0", "b1", "b2"}).CheckOK();
  schema.SetMetricName("value");
  return schema;
}

/// Deterministic dataset over GridSchema: every (a, b) group gets
/// `per_group` rows with metric values 99..103 (tight cluster around 101),
/// plus one target row V = (a0, b0) with the given extreme metric.
/// With a z-score detector (threshold 3), V is an outlier in every context
/// containing it, so COE(V) is all 2^(t-m) = 16 contexts containing V.
///
/// Note the default group size: a z-score cannot exceed (n-1)/sqrt(n), so
/// a population of n rows can only cross threshold 3 when n >= 11; groups
/// of 12 give the exact context of V (13 rows) a headroom of ~3.3.
struct GridData {
  Dataset dataset;
  uint32_t v_row;
};

inline GridData MakeGridDataset(size_t per_group = 12,
                                double v_metric = 200.0) {
  Dataset dataset(GridSchema());
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      for (size_t i = 0; i < per_group; ++i) {
        dataset.AppendRow({a, b}, 99.0 + static_cast<double>(i % 5))
            .CheckOK();
      }
    }
  }
  const uint32_t v_row = static_cast<uint32_t>(dataset.num_rows());
  dataset.AppendRow({0, 0}, v_metric).CheckOK();
  return GridData{std::move(dataset), v_row};
}

/// Like MakeGridDataset, but group (a2, b2) is wildly spread (values up to
/// v_metric and beyond), so V stops being an outlier in any context that
/// includes both a2 and b2 — giving COE a non-trivial shape for search
/// tests.
inline GridData MakeSpreadGridDataset(size_t per_group = 12,
                                      double v_metric = 200.0) {
  Dataset dataset(GridSchema());
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      const bool wild = (a == 2 && b == 2);
      for (size_t i = 0; i < per_group * (wild ? 6 : 1); ++i) {
        const double base =
            wild ? 90.0 + 25.0 * static_cast<double>(i % 10)
                 : 99.0 + static_cast<double>(i % 5);
        dataset.AppendRow({a, b}, base).CheckOK();
      }
    }
  }
  const uint32_t v_row = static_cast<uint32_t>(dataset.num_rows());
  dataset.AppendRow({0, 0}, v_metric).CheckOK();
  return GridData{std::move(dataset), v_row};
}

/// Z-score detector configured for the tiny grid datasets.
inline ZscoreDetector MakeTestDetector() {
  ZscoreOptions options;
  options.threshold = 3.0;
  options.min_population = 4;
  return ZscoreDetector(options);
}

/// 80k salary rows: more than the 64Ki rows (kMinRowsPerShard) at which
/// composed probes scatter over their pool, so populations span many
/// bitmap words and every shard or segment boundary.
inline Dataset MultiChunkSalaryDataset() {
  SalaryDatasetSpec spec;
  spec.num_rows = 80'000;
  spec.num_jobs = 16;
  spec.num_employers = 12;
  spec.num_years = 8;
  spec.seed = 4242;
  return std::move(GenerateSalaryDataset(spec).value().dataset);
}

/// Every row of `dataset`, in order: the append stream that, once sealed,
/// rebuilds the dataset exactly (a fresh load-once engine is the oracle).
inline std::vector<Row> RowsOf(const Dataset& dataset) {
  std::vector<Row> rows;
  rows.reserve(dataset.num_rows());
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    rows.push_back(dataset.GetRow(r));
  }
  return rows;
}

inline ContextVec RandomContext(const Schema& schema, double density,
                                Rng* rng) {
  ContextVec c(schema.total_values());
  for (size_t bit = 0; bit < c.num_bits(); ++bit) {
    if (rng->NextBernoulli(density)) c.Set(bit);
  }
  return c;
}

/// One value chosen per attribute — the exact-context shape the search
/// frontier probes.
inline ContextVec RandomSingletonContext(const Schema& schema, Rng* rng) {
  ContextVec c(schema.total_values());
  size_t base = 0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const size_t domain = schema.attribute(a).domain_size();
    c.Set(base + rng->NextBounded(domain));
    base += domain;
  }
  return c;
}

/// The equivalence fuzzes' context set: the degenerate shapes (empty
/// context, full context, one empty attribute) followed by `num_trials`
/// rounds of dense random, sparse random and all-singleton contexts.
inline std::vector<ContextVec> FuzzContexts(const Schema& schema,
                                            uint64_t seed, int num_trials) {
  Rng rng(seed);
  std::vector<ContextVec> contexts;
  contexts.push_back(ContextVec(schema.total_values()));  // no bits chosen
  contexts.push_back(context_ops::FullContext(schema));
  {
    ContextVec one_empty_attr = context_ops::FullContext(schema);
    const size_t domain0 = schema.attribute(0).domain_size();
    for (size_t v = 0; v < domain0; ++v) one_empty_attr.Clear(v);
    contexts.push_back(one_empty_attr);  // selects nothing
  }
  for (int t = 0; t < num_trials; ++t) {
    contexts.push_back(RandomContext(schema, 0.5, &rng));
    contexts.push_back(RandomContext(schema, 0.15, &rng));
    contexts.push_back(RandomSingletonContext(schema, &rng));
  }
  return contexts;
}

/// The naive oracle for D_C: every row of `dataset` tested against `c` with
/// context_ops::ContainsRow, the per-row rule bench_micro_population times
/// the index against. O(rows * attributes) per call, no index involved.
inline BitVector NaivePopulation(const Dataset& dataset, const ContextVec& c) {
  BitVector population(dataset.num_rows());
  for (uint32_t row = 0; row < dataset.num_rows(); ++row) {
    if (context_ops::ContainsRow(dataset.schema(), dataset, row, c)) {
      population.Set(row);
    }
  }
  return population;
}

/// Holds a server's first micro-batch inside its pre_batch_hook until the
/// test opens the gate, so work submitted meanwhile is certain to be queued
/// when dispatch resumes — a deterministic stand-in for "everything
/// arrives at once". Usage: install Hook() (or call Pass() from a hook of
/// your own), submit one request from a tenant of its own (the clients
/// under test keep their Rng streams), WaitUntilHeld(), queue the work
/// under test, then Open().
class DispatchGate {
 public:
  /// A pre_batch_hook that only passes the gate.
  auto Hook() {
    // Generic in the batch type, so this header needs no serving headers.
    return [this](auto /*batch*/) { Pass(); };
  }

  /// The hook body. The first call blocks until Open() and returns true;
  /// every later call returns false at once.
  bool Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (held_) return false;
    held_ = true;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
    return true;
  }

  /// Blocks until the first micro-batch is parked inside Pass().
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] { return held_; });
  }

  void Open() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      open_ = true;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  bool held_ = false;
  bool open_ = false;
};

}  // namespace testing_util
}  // namespace pcor
