#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/context/population_index.h"
#include "src/context/sharded_population_index.h"
#include "src/context/starting_context.h"
#include "src/data/dataset.h"
#include "src/dp/budget.h"
#include "src/dp/utility.h"
#include "src/outlier/detector.h"
#include "src/context/detector_cache.h"
#include "src/search/sampler.h"

namespace pcor {

/// \brief Options for one PCOR release.
struct PcorOptions {
  /// Which sampling layer to use (the paper's final choice is BFS).
  SamplerKind sampler = SamplerKind::kBfs;
  /// n — the number of samples the sampler collects.
  size_t num_samples = 50;
  /// Total OCDP budget epsilon for this release. eps1 is derived per
  /// algorithm: eps/2 for direct/uniform/random-walk, eps/(2n+2) for
  /// DFS/BFS (see dp/budget.h).
  double total_epsilon = 0.2;
  /// Utility family scoring candidate contexts.
  UtilityKind utility = UtilityKind::kPopulationSize;
  /// How the starting context C_V is obtained.
  StartingContextOptions starting_context;
  /// Probe cap forwarded to the sampler.
  size_t max_probes = 20'000'000;

  /// Memberwise equality; the batch/serving layers use it to recognize
  /// entries that share a configuration (homogeneous sub-batches).
  bool operator==(const PcorOptions&) const = default;
};

/// \brief Checks a PcorOptions for values no release can run under:
/// `num_samples == 0`, a non-finite or non-positive `total_epsilon`,
/// `max_probes == 0`, or a `total_epsilon` whose per-draw eps1
/// (Epsilon1ForTotal) is not a positive normal double. Returns
/// kInvalidArgument naming the offending field.
///
/// Release/ReleaseWithUtility apply it on entry, and the serving front-end
/// applies it at admission so a bad per-request override is rejected
/// synchronously, before any budget is charged.
Status ValidatePcorOptions(const PcorOptions& options);

/// \brief The released context plus release metadata (data-owner side).
struct PcorRelease {
  ContextVec context;            ///< C_p — the private valid context
  std::string description;       ///< human-readable rendering of C_p
  ContextVec starting_context;   ///< C_V used by graph samplers
  double epsilon_spent = 0.0;    ///< total OCDP epsilon consumed
  double epsilon1 = 0.0;         ///< per-draw mechanism parameter
  size_t num_candidates = 0;     ///< |C_M| the final draw chose from
  size_t probes = 0;             ///< candidate contexts examined
  /// Detector runs (cache misses) during the release. Exact when the
  /// release ran alone; in a multi-threaded batch concurrent releases
  /// interleave on the shared cache, so it is only an attribution estimate.
  size_t f_evaluations = 0;
  double utility_score = 0.0;    ///< u_V(D, C_p) — private to the owner
  double seconds = 0.0;          ///< wall time of the release
  bool hit_probe_cap = false;
  /// Epoch (sealed-row count) of the dataset view this release ran
  /// against. For a classic load-once engine this is simply the dataset's
  /// row count; under continual release it identifies which snapshot the
  /// release was pinned to (see src/search/streaming.h).
  uint64_t epoch = 0;
  /// Continual-release metadata, zero unless a streaming PcorServer served
  /// this release: the tenant's 1-based submission position, stamped by
  /// the server, which also charges the release at admission exactly like
  /// a classic one.
  uint64_t stream_release_index = 0;
};

/// \brief One unit of work for ReleaseBatch: a query outlier plus an
/// optional fixed utility. When `utility` is null the engine derives one
/// from the effective PcorOptions per release (starting context included);
/// a non-null utility pins both, which the experiment harness uses to keep
/// C_V fixed per row. The pointee must outlive the batch call.
struct BatchRequest {
  uint32_t v_row = 0;
  const UtilityFunction* utility = nullptr;
  /// When true, `rng_seed` is used verbatim as this entry's Rng stream seed
  /// instead of BatchTrialSeed(batch seed, index). The serving front-end
  /// pins admission-time seeds through this hook, so how requests coalesce
  /// into micro-batches cannot perturb any release: the entry's reported
  /// seed, context, epsilon and stats are identical whether it ran alone or
  /// packed with 63 strangers.
  bool use_explicit_seed = false;
  uint64_t rng_seed = 0;
  /// Per-request release configuration (sampler, epsilon split, probe
  /// budget, ...). When set, it replaces the batch-level PcorOptions for
  /// this entry only — a heterogeneous batch partitions into homogeneous
  /// sub-batches by construction, since every entry resolves its own
  /// effective options while still executing on the shared ThreadPool and
  /// verifier cache. Held by value: the serving front-end copies requests
  /// into its admission queue, where a pointee could not be kept alive.
  /// Callers are responsible for passing a valid configuration (see
  /// ValidatePcorOptions); an invalid one fails the entry, not the batch.
  std::optional<PcorOptions> options;
};

/// \brief Outcome of one batch item. `release` is meaningful iff
/// `status.ok()`. `rng_seed` is the per-trial stream seed, recorded so any
/// single item can be replayed in isolation with Release().
struct BatchEntry {
  uint32_t v_row = 0;
  uint64_t rng_seed = 0;
  Status status;
  PcorRelease release;
};

/// \brief Aggregated outcome of ReleaseBatch. Entries keep input order.
///
/// Work counters live where they are kept: per entry on its PcorRelease,
/// and for the shared verifier memo in verifier().Stats(), whose deltas
/// around a call are exact only while no other batch runs on the engine.
struct BatchReleaseReport {
  std::vector<BatchEntry> entries;
  size_t threads = 1;             ///< parallelism cap, caller included
  size_t failures = 0;            ///< entries whose status is not OK
  double seconds = 0.0;           ///< wall time of the whole batch

  size_t num_released() const { return entries.size() - failures; }
};

/// \brief PCOR — the end-to-end private contextual outlier release engine
/// (Definition 3.2). Owns the population index and the memoized verifier
/// for one (dataset, detector) pair; Release() can be called for many
/// outliers and options combinations. Thread-safe for concurrent Release()
/// calls with distinct Rngs.
class PcorEngine {
 public:
  /// \brief Builds the engine's row-sharded population index per
  /// `index_options` (shard count, pool). The default
  /// resolves shard count from PCOR_SHARD_COUNT / DefaultShardCount(), so
  /// existing callers transparently gain sharding on large datasets while
  /// small ones stay single-shard.
  PcorEngine(const Dataset& dataset, const OutlierDetector& detector,
             VerifierOptions verifier_options = {},
             ShardedIndexOptions index_options = {});

  /// \brief Probe-backed streaming construction: the engine runs over an
  /// externally built PopulationProbe — the streaming layer's
  /// ShardedPopulationIndex over shared epoch segments — held alive by
  /// shared ownership. The verifier memoizes into the shared epoch-keyed
  /// `memo` under epoch id `epoch` instead of a private cache, so per-epoch
  /// engines of one stream reuse each other's still-valid results while
  /// stale-epoch hits stay impossible (the epoch is part of the cache key).
  /// Neither `probe` nor `memo` may be null; see VerifierMemo for the
  /// sharing contract.
  PcorEngine(std::shared_ptr<const PopulationProbe> probe,
             const OutlierDetector& detector,
             std::shared_ptr<VerifierMemo> memo, uint64_t epoch);

  /// \brief Releases a private valid context for row `v_row`.
  ///
  /// Steps: (1) find C_V, (2) derive eps1 from the OCDP budget and the
  /// sampler kind, (3) collect C_M with the sampler, (4) one final
  /// Exponential-mechanism draw over C_M picks the release.
  ///
  /// Errors: kInvalidArgument (options fail ValidatePcorOptions),
  /// kOutOfRange (v_row outside the dataset), kNoValidContext (V is not a
  /// contextual outlier under this detector).
  Result<PcorRelease> Release(uint32_t v_row, const PcorOptions& options,
                              Rng* rng) const;

  /// \brief Variant with a caller-supplied utility (any UtilityFunction
  /// implementation; PCOR's contribution 4 is utility-agnosticism).
  Result<PcorRelease> ReleaseWithUtility(uint32_t v_row,
                                         const PcorOptions& options,
                                         const UtilityFunction& utility,
                                         Rng* rng) const;

  /// \brief Releases many outliers in one call, fanned out with the shared
  /// verifier cache over the probe's pool (probe().probe_pool(); a null
  /// pool runs the batch serially). Entry i draws from an independent Rng
  /// stream derived from (seed, i), so the batch outcome is identical for
  /// every thread count, including 1.
  ///
  /// `num_threads` 0 means DefaultThreadCount(); the batch runs on at most
  /// that many threads, the caller included (report.threads says how many
  /// it was allowed: capped by entries and pool workers + 1). May be
  /// called from a worker of that same pool. Per-entry errors (e.g. a
  /// row with no valid context) are recorded in the entry, not returned:
  /// one bad row must not sink a 10k-row batch. Blocks until every entry
  /// completed; thread-safe for concurrent calls on one engine.
  BatchReleaseReport ReleaseBatch(std::span<const uint32_t> v_rows,
                                  const PcorOptions& options, uint64_t seed,
                                  size_t num_threads = 0) const;

  /// \brief Generalized batch: per-item fixed utilities, explicit seeds,
  /// and per-item PcorOptions overrides (see BatchRequest). `options` is
  /// the default an entry without its own override runs under. Entries with
  /// differing options form homogeneous sub-batches executed on the same
  /// pool pass and verifier cache; an entry whose override fails
  /// ValidatePcorOptions completes with a kInvalidArgument status.
  BatchReleaseReport ReleaseBatch(std::span<const BatchRequest> requests,
                                  const PcorOptions& options, uint64_t seed,
                                  size_t num_threads = 0) const;

  /// \brief The Rng stream seed ReleaseBatch assigns to entry `index`.
  /// Exposed so callers (experiment harness, tests) can replay one trial.
  /// The Weyl step keeps (seed, index) pairs distinct; the SplitMix64
  /// finalizer then avalanches them so neighboring trials start from
  /// decorrelated streams (a bare linear step leaves xoshiro's SplitMix64
  /// seeding with nearly-identical low bits across a batch).
  static uint64_t BatchTrialSeed(uint64_t seed, size_t index) {
    return SplitMix64Mix(seed + 0x9e3779b97f4a7c15ULL * (index + 1));
  }

  /// \brief The population probe every release runs against (always set).
  const PopulationProbe& probe() const { return *probe_; }
  const OutlierVerifier& verifier() const { return verifier_; }

 private:
  std::shared_ptr<const PopulationProbe> probe_;
  OutlierVerifier verifier_;
};

}  // namespace pcor
