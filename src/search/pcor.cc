#include "src/search/pcor.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/common/threading.h"
#include "src/common/timer.h"
#include "src/dp/mechanism.h"

namespace pcor {

Status ValidatePcorOptions(const PcorOptions& options) {
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be at least 1");
  }
  if (!std::isfinite(options.total_epsilon) || options.total_epsilon <= 0.0) {
    return Status::InvalidArgument(strings::Format(
        "total_epsilon must be finite and positive, got %g",
        options.total_epsilon));
  }
  if (options.max_probes == 0) {
    return Status::InvalidArgument("max_probes must be at least 1");
  }
  // The engine draws with eps1, not total_epsilon: a tiny total can split
  // into a subnormal or zero eps1 (DFS/BFS divide by 2n+2), which the
  // mechanism's invariant check would abort on.
  const double eps1 = Epsilon1ForTotal(options.sampler, options.total_epsilon,
                                       options.num_samples);
  if (!std::isnormal(eps1)) {
    return Status::InvalidArgument(strings::Format(
        "total_epsilon %g gives a per-draw epsilon1 of %g, which is not a "
        "positive normal double",
        options.total_epsilon, eps1));
  }
  return Status::OK();
}

PcorEngine::PcorEngine(const Dataset& dataset,
                       const OutlierDetector& detector,
                       VerifierOptions verifier_options,
                       ShardedIndexOptions index_options)
    : probe_(std::make_shared<const ShardedPopulationIndex>(dataset,
                                                            index_options)),
      verifier_(*probe_, detector, verifier_options) {}

namespace {
std::shared_ptr<const PopulationProbe> CheckedProbe(
    std::shared_ptr<const PopulationProbe> probe) {
  PCOR_CHECK(probe != nullptr) << "probe-backed engine requires a probe";
  return probe;
}
}  // namespace

PcorEngine::PcorEngine(std::shared_ptr<const PopulationProbe> probe,
                       const OutlierDetector& detector,
                       std::shared_ptr<VerifierMemo> memo, uint64_t epoch)
    : probe_(CheckedProbe(std::move(probe))),
      verifier_(*probe_, detector, std::move(memo), epoch) {}

Result<PcorRelease> PcorEngine::Release(uint32_t v_row,
                                        const PcorOptions& options,
                                        Rng* rng) const {
  PCOR_RETURN_NOT_OK(ValidatePcorOptions(options));
  // Graph samplers need C_V before the utility can be built (the overlap
  // utility is defined relative to it).
  const bool needs_start = options.sampler == SamplerKind::kRandomWalk ||
                           options.sampler == SamplerKind::kDfs ||
                           options.sampler == SamplerKind::kBfs;
  ContextVec start;
  if (needs_start || options.utility == UtilityKind::kOverlapWithStart) {
    PCOR_ASSIGN_OR_RETURN(
        start,
        FindStartingContext(verifier_, v_row, options.starting_context, rng));
  }
  std::unique_ptr<UtilityFunction> utility =
      MakeUtility(options.utility, verifier_, start);
  PCOR_ASSIGN_OR_RETURN(PcorRelease release,
                        ReleaseWithUtility(v_row, options, *utility, rng));
  return release;
}

Result<PcorRelease> PcorEngine::ReleaseWithUtility(
    uint32_t v_row, const PcorOptions& options,
    const UtilityFunction& utility, Rng* rng) const {
  WallTimer timer;
  PCOR_RETURN_NOT_OK(ValidatePcorOptions(options));
  if (v_row >= probe_->num_rows()) {
    return Status::OutOfRange("v_row outside dataset");
  }

  PcorRelease release;
  const size_t evals_before = verifier_.evaluations();

  const bool needs_start = options.sampler == SamplerKind::kRandomWalk ||
                           options.sampler == SamplerKind::kDfs ||
                           options.sampler == SamplerKind::kBfs;
  if (needs_start) {
    // The overlap utility carries its own C_V; reuse it so the sampler
    // walks from the same context the utility scores against.
    if (const auto* overlap = dynamic_cast<const OverlapUtility*>(&utility)) {
      release.starting_context = overlap->starting_context();
    } else {
      PCOR_ASSIGN_OR_RETURN(
          release.starting_context,
          FindStartingContext(verifier_, v_row, options.starting_context,
                              rng));
    }
  }

  const double eps1 = Epsilon1ForTotal(options.sampler, options.total_epsilon,
                                       options.num_samples);

  SamplerRequest request;
  request.verifier = &verifier_;
  request.utility = &utility;
  request.v_row = v_row;
  request.start_context = release.starting_context;
  request.num_samples = options.num_samples;
  request.epsilon1 = eps1;
  request.max_probes = options.max_probes;

  std::unique_ptr<ContextSampler> sampler = MakeSampler(options.sampler);
  PCOR_ASSIGN_OR_RETURN(SamplerOutcome outcome,
                        sampler->Sample(request, rng));

  // Final Exponential-mechanism draw over the collected candidates.
  // Scoring is free of randomness: every Rng draw happened in the sampler.
  std::vector<double> scores(outcome.samples.size());
  for (size_t i = 0; i < outcome.samples.size(); ++i) {
    scores[i] = utility.Score(outcome.samples[i], v_row);
  }
  ExponentialMechanism mech(eps1, utility.sensitivity());
  PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(scores, rng));

  release.context = outcome.samples[pick];
  release.description =
      context_ops::Describe(probe_->schema(), release.context);
  release.epsilon1 = eps1;
  release.epsilon_spent =
      TotalForEpsilon1(options.sampler, eps1, options.num_samples);
  release.num_candidates = outcome.samples.size();
  release.probes = outcome.probes;
  release.f_evaluations = verifier_.evaluations() - evals_before;
  release.utility_score = scores[pick];
  release.hit_probe_cap = outcome.hit_probe_cap;
  release.epoch = verifier_.epoch();
  release.seconds = timer.ElapsedSeconds();
  return release;
}

BatchReleaseReport PcorEngine::ReleaseBatch(std::span<const uint32_t> v_rows,
                                            const PcorOptions& options,
                                            uint64_t seed,
                                            size_t num_threads) const {
  std::vector<BatchRequest> requests(v_rows.size());
  for (size_t i = 0; i < v_rows.size(); ++i) requests[i].v_row = v_rows[i];
  return ReleaseBatch(std::span<const BatchRequest>(requests), options, seed,
                      num_threads);
}

BatchReleaseReport PcorEngine::ReleaseBatch(
    std::span<const BatchRequest> requests, const PcorOptions& options,
    uint64_t seed, size_t num_threads) const {
  WallTimer timer;
  BatchReleaseReport report;
  if (num_threads == 0) num_threads = DefaultThreadCount();
  // Never claim more threads than entries, nor more than the probe pool's
  // workers plus this (participating) caller.
  report.threads = std::max<size_t>(1, std::min(num_threads, requests.size()));
  ThreadPool* pool = report.threads > 1 ? probe_->probe_pool() : nullptr;
  report.threads =
      pool == nullptr ? 1 : std::min(report.threads, pool->num_threads() + 1);
  report.entries.resize(requests.size());

  // Entry i's Rng stream depends only on (seed, i), never on which thread
  // runs it, so scheduling cannot perturb the released contexts. Entries
  // carrying their own PcorOptions resolve them here — a heterogeneous
  // batch is executed as homogeneous per-entry sub-batches in the one
  // ParallelFor, with no barrier between configurations (nothing in a
  // release depends on a sibling entry's options). ParallelFor is
  // reentrancy-safe, so a batch issued from a worker of this same pool
  // (or nesting probe scatters inside its releases) cannot deadlock.
  const auto run_one = [&](size_t i) {
    BatchEntry& entry = report.entries[i];
    entry.v_row = requests[i].v_row;
    entry.rng_seed = requests[i].use_explicit_seed ? requests[i].rng_seed
                                                   : BatchTrialSeed(seed, i);
    const PcorOptions& effective =
        requests[i].options ? *requests[i].options : options;
    Rng rng(entry.rng_seed);
    Result<PcorRelease> released =
        requests[i].utility == nullptr
            ? Release(entry.v_row, effective, &rng)
            : ReleaseWithUtility(entry.v_row, effective,
                                 *requests[i].utility, &rng);
    if (released.ok()) {
      entry.release = std::move(released).value();
    } else {
      entry.status = released.status();
    }
  };
  if (report.threads <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) run_one(i);
  } else {
    pool->ParallelFor(requests.size(), report.threads, run_one);
  }

  for (const BatchEntry& entry : report.entries) {
    if (!entry.status.ok()) ++report.failures;
  }
  report.seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace pcor
