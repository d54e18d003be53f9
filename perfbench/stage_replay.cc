// Stage anatomy of a release, timed from outside: re-executes sampled
// releases on one thread through the same public calls, in the same order
// and with the same Rng stream as PcorEngine::Release/ReleaseWithUtility
// (src/search/pcor.cc), and checks that each re-execution releases the
// context the engine released. When Release() changes internally, the
// mismatch count shows it and this file follows in a benchmark change.

#include <chrono>

#include "perfbench/perfbench.h"
#include "src/context/starting_context.h"
#include "src/dp/budget.h"
#include "src/dp/mechanism.h"
#include "src/dp/utility.h"
#include "src/search/sampler.h"

namespace perfbench {

namespace {

using Steady = std::chrono::steady_clock;

double Ns(Steady::time_point a, Steady::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

bool NeedsStart(pcor::SamplerKind kind) {
  return kind == pcor::SamplerKind::kRandomWalk ||
         kind == pcor::SamplerKind::kDfs || kind == pcor::SamplerKind::kBfs;
}

}  // namespace

void ReplayStages(const pcor::OutlierVerifier& verifier,
                  std::span<const ReplayItem> items,
                  const LayerCounters& counters, StageTotals* totals_out) {
  StageTotals& totals = *totals_out;
  const LayerTotals layer_before = counters.Read();
  for (const ReplayItem& item : items) {
    const PcorOptions& options = item.options;
    pcor::Rng rng(item.seed);
    const bool needs_start = NeedsStart(options.sampler);

    // Release(): C_V for the utility.
    const auto t0 = Steady::now();
    pcor::ContextVec start;
    if (needs_start ||
        options.utility == pcor::UtilityKind::kOverlapWithStart) {
      auto found = pcor::FindStartingContext(verifier, item.v_row,
                                             options.starting_context, &rng);
      if (!found.ok()) {
        ++totals.mismatches;
        continue;
      }
      start = std::move(found).value();
    }
    const auto t1 = Steady::now();
    std::unique_ptr<pcor::UtilityFunction> utility =
        pcor::MakeUtility(options.utility, verifier, start);

    // ReleaseWithUtility(): C_V again for the sampler, unless the overlap
    // utility carries it.
    const auto t2 = Steady::now();
    pcor::ContextVec walk_start;
    if (needs_start) {
      if (const auto* overlap =
              dynamic_cast<const pcor::OverlapUtility*>(utility.get())) {
        walk_start = overlap->starting_context();
      } else {
        auto found = pcor::FindStartingContext(
            verifier, item.v_row, options.starting_context, &rng);
        if (!found.ok()) {
          ++totals.mismatches;
          continue;
        }
        walk_start = std::move(found).value();
      }
    }
    const double eps1 = pcor::Epsilon1ForTotal(
        options.sampler, options.total_epsilon, options.num_samples);
    pcor::SamplerRequest request;
    request.verifier = &verifier;
    request.utility = utility.get();
    request.v_row = item.v_row;
    request.start_context = walk_start;
    request.num_samples = options.num_samples;
    request.epsilon1 = eps1;
    request.max_probes = options.max_probes;
    std::unique_ptr<pcor::ContextSampler> sampler =
        pcor::MakeSampler(options.sampler);

    const auto t3 = Steady::now();
    const LayerTotals walk_before = counters.Read();
    auto outcome = sampler->Sample(request, &rng);
    const LayerTotals walk_inner = counters.Read() - walk_before;
    const auto t4 = Steady::now();
    if (!outcome.ok()) {
      ++totals.mismatches;
      continue;
    }
    const std::vector<pcor::ContextVec>& samples = outcome.value().samples;
    std::vector<double> scores(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      scores[i] = utility->Score(samples[i], item.v_row);
    }
    const auto t5 = Steady::now();
    pcor::ExponentialMechanism mechanism(eps1, utility->sensitivity());
    auto pick = mechanism.Choose(scores, &rng);
    const auto t6 = Steady::now();

    ++totals.releases;
    if (!pick.ok() || !(samples[pick.value()] == item.expected)) {
      ++totals.mismatches;
    }
    totals.wall_ns += Ns(t0, t6);
    totals.start_ns += Ns(t0, t1) + Ns(t2, t3);
    totals.walk_ns += Ns(t3, t4);
    totals.walk_inner_ns +=
        static_cast<double>(walk_inner.probe_ns() + walk_inner.detect_ns);
    totals.score_ns += Ns(t4, t5);
    totals.mechanism_ns += Ns(t5, t6);
  }
  totals.layer += counters.Read() - layer_before;
}

}  // namespace perfbench
