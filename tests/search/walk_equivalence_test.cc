// Equivalence oracle for the DP-BFS and DP-DFS walks: reference samplers,
// written the plain way (std::unordered_set membership and one
// OutlierPopulation call per probe), must agree with BfsSampler and
// DfsSampler on every sample, probe count, probe-cap flag and f_M
// evaluation, across engines, memo modes and probe caps.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/context/starting_context.h"
#include "src/data/salary_generator.h"
#include "src/dp/mechanism.h"
#include "src/dp/utility.h"
#include "src/search/bfs.h"
#include "src/search/dfs.h"
#include "src/search/pcor.h"
#include "src/search/streaming.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

using ContextSet = std::unordered_set<ContextVec, ContextVecHash>;

Result<SamplerOutcome> ReferenceBfs(const SamplerRequest& request, Rng* rng) {
  const OutlierVerifier& verifier = *request.verifier;
  const size_t t = verifier.index().schema().total_values();
  const std::optional<size_t> start_population =
      verifier.OutlierPopulation(request.start_context, request.v_row);
  if (!start_population) return Status::InvalidArgument("no C_V");
  ExponentialMechanism mech(request.epsilon1,
                            request.utility->sensitivity());
  SamplerOutcome out;
  std::vector<ContextVec> frontier{request.start_context};
  std::vector<double> frontier_scores{request.utility->ScoreMatch(
      request.start_context, request.v_row, *start_population)};
  ContextSet seen{request.start_context};
  ContextSet visited;
  while (visited.size() < request.num_samples && !frontier.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(frontier_scores, rng));
    const ContextVec current = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    frontier_scores[pick] = frontier_scores.back();
    frontier_scores.pop_back();
    visited.insert(current);
    out.samples.push_back(current);
    ContextVec neighbor = current;
    for (size_t bit = 0; bit < t; ++bit) {
      neighbor.Flip(bit);
      ++out.probes;
      if (!seen.count(neighbor)) {
        if (const std::optional<size_t> population =
                verifier.OutlierPopulation(neighbor, request.v_row)) {
          seen.insert(neighbor);
          frontier.push_back(neighbor);
          frontier_scores.push_back(request.utility->ScoreMatch(
              neighbor, request.v_row, *population));
        }
      }
      neighbor.Flip(bit);
    }
  }
  if (out.samples.empty()) return Status::NoValidContext("empty walk");
  return out;
}

Result<SamplerOutcome> ReferenceDfs(const SamplerRequest& request, Rng* rng) {
  const OutlierVerifier& verifier = *request.verifier;
  const size_t t = verifier.index().schema().total_values();
  if (!verifier.IsOutlierInContext(request.start_context, request.v_row)) {
    return Status::InvalidArgument("no C_V");
  }
  ExponentialMechanism mech(request.epsilon1,
                            request.utility->sensitivity());
  SamplerOutcome out;
  std::vector<ContextVec> stack{request.start_context};
  ContextSet visited;
  while (visited.size() < request.num_samples && !stack.empty()) {
    if (out.probes >= request.max_probes) {
      out.hit_probe_cap = true;
      break;
    }
    const ContextVec current = stack.back();
    if (visited.insert(current).second) out.samples.push_back(current);
    std::vector<ContextVec> children;
    std::vector<double> scores;
    ContextVec neighbor = current;
    for (size_t bit = 0; bit < t; ++bit) {
      neighbor.Flip(bit);
      ++out.probes;
      if (!visited.count(neighbor)) {
        if (const std::optional<size_t> population =
                verifier.OutlierPopulation(neighbor, request.v_row)) {
          children.push_back(neighbor);
          scores.push_back(request.utility->ScoreMatch(
              neighbor, request.v_row, *population));
        }
      }
      neighbor.Flip(bit);
    }
    if (children.empty()) {
      stack.pop_back();
      continue;
    }
    PCOR_ASSIGN_OR_RETURN(size_t pick, mech.Choose(scores, rng));
    stack.push_back(children[pick]);
  }
  if (out.samples.empty()) return Status::NoValidContext("empty walk");
  return out;
}

// One walk and the f_M evaluations it cost its verifier's memo.
struct Walk {
  Result<SamplerOutcome> outcome = Status::Internal("not run");
  size_t f_evaluations = 0;
};

template <typename Fn>
Walk RunWalk(const OutlierVerifier& verifier, Fn sample) {
  Walk walk;
  const size_t before = verifier.evaluations();
  walk.outcome = sample();
  walk.f_evaluations = verifier.evaluations() - before;
  return walk;
}

// How many compared pairs capped their walk, and how many ran.
struct Coverage {
  size_t pairs = 0;
  size_t capped = 0;
};

// Walks every (row, seed) pair with both samplers of each kind: the
// references on `reference`, the production samplers on `subject`. The two
// verifiers see the same calls in the same order, so their memos stay in
// step and per-walk evaluation counts are comparable.
Coverage ExpectSameWalks(const OutlierVerifier& reference,
                         const OutlierVerifier& subject,
                         std::span<const uint32_t> rows, size_t num_seeds,
                         size_t max_probes) {
  Coverage coverage;
  const BfsSampler bfs;
  const DfsSampler dfs;
  for (const uint32_t row : rows) {
    Rng start_rng_a(row), start_rng_b(row);
    const Result<ContextVec> start_a = FindStartingContext(
        reference, row, StartingContextOptions{}, &start_rng_a);
    const Result<ContextVec> start_b = FindStartingContext(
        subject, row, StartingContextOptions{}, &start_rng_b);
    EXPECT_EQ(start_a.ok(), start_b.ok()) << "row " << row;
    if (!start_a.ok() || !start_b.ok()) continue;
    EXPECT_EQ(*start_a, *start_b) << "row " << row;

    const PopulationSizeUtility population_a(reference);
    const PopulationSizeUtility population_b(subject);
    const OverlapUtility overlap_a(reference, *start_a);
    const OverlapUtility overlap_b(subject, *start_b);
    for (uint64_t seed = 0; seed < num_seeds; ++seed) {
      const bool by_overlap = seed % 3 == 2;
      SamplerRequest request;
      request.v_row = row;
      request.start_context = *start_a;
      request.num_samples = 4 + seed % 13;
      request.epsilon1 = 0.02 + 0.03 * static_cast<double>(seed % 4);
      request.max_probes = max_probes;
      SamplerRequest request_a = request;
      request_a.verifier = &reference;
      request_a.utility = &population_a;
      SamplerRequest request_b = request;
      request_b.verifier = &subject;
      request_b.utility = &population_b;
      if (by_overlap) {
        request_a.utility = &overlap_a;
        request_b.utility = &overlap_b;
      }
      for (const bool depth_first : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << (depth_first ? "dfs" : "bfs") << " row " << row
                     << " seed " << seed);
        const uint64_t rng_seed = 7919 * row + seed;
        const Walk want = RunWalk(reference, [&] {
          Rng rng(rng_seed);
          return depth_first ? ReferenceDfs(request_a, &rng)
                             : ReferenceBfs(request_a, &rng);
        });
        const Walk got = RunWalk(subject, [&] {
          Rng rng(rng_seed);
          return depth_first ? dfs.Sample(request_b, &rng)
                             : bfs.Sample(request_b, &rng);
        });
        ++coverage.pairs;
        EXPECT_EQ(got.f_evaluations, want.f_evaluations);
        EXPECT_EQ(got.outcome.ok(), want.outcome.ok());
        if (!got.outcome.ok() || !want.outcome.ok()) continue;
        EXPECT_EQ(got.outcome->samples, want.outcome->samples);
        EXPECT_EQ(got.outcome->probes, want.outcome->probes);
        EXPECT_EQ(got.outcome->hit_probe_cap, want.outcome->hit_probe_cap);
        if (want.outcome->hit_probe_cap) ++coverage.capped;
      }
    }
  }
  return coverage;
}

class WalkEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr size_t kSeeds = 8;

  WalkEquivalenceTest()
      : data_(GenerateSalaryDataset(Spec()).value()),
        detector_(testing_util::MakeTestDetector()) {
    // Planted rows plus a stride of ordinary ones: most have a C_V, and
    // the ordinary ones that do walk through sparser matching regions.
    for (uint32_t row : data_.planted_outlier_rows) rows_.push_back(row);
    for (uint32_t row = 5; row < data_.dataset.num_rows(); row += 97) {
      rows_.push_back(row);
    }
  }

  static SalaryDatasetSpec Spec() {
    SalaryDatasetSpec spec;
    spec.num_rows = 3000;
    spec.num_planted = 24;
    spec.seed = 99;
    return spec;
  }

  GeneratedData data_;
  ZscoreDetector detector_;
  std::vector<uint32_t> rows_;
};

TEST_F(WalkEquivalenceTest, ClassicEngineWalksMatchTheReference) {
  const PcorEngine reference(data_.dataset, detector_);
  const PcorEngine subject(data_.dataset, detector_);
  const Coverage coverage =
      ExpectSameWalks(reference.verifier(), subject.verifier(), rows_, kSeeds,
                      SamplerRequest{}.max_probes);
  EXPECT_GE(coverage.pairs, 200u);
}

TEST_F(WalkEquivalenceTest, StreamingEpochWalksMatchTheReference) {
  // Two streams fed and sealed alike, so each epoch verifier has its own
  // memo; the pinned snapshot spans two segments.
  const std::vector<Row> all = testing_util::RowsOf(data_.dataset);
  const size_t half = all.size() / 2;
  StreamingPcorEngine stream_a(data_.dataset.schema(), detector_);
  StreamingPcorEngine stream_b(data_.dataset.schema(), detector_);
  for (StreamingPcorEngine* stream : {&stream_a, &stream_b}) {
    ASSERT_TRUE(stream->AppendRows(std::span(all).first(half)).ok());
    stream->SealEpoch();
    ASSERT_TRUE(stream->AppendRows(std::span(all).subspan(half)).ok());
    ASSERT_EQ(stream->SealEpoch(), all.size());
  }
  const std::shared_ptr<const EpochSnapshot> pinned_a = stream_a.Pin();
  const std::shared_ptr<const EpochSnapshot> pinned_b = stream_b.Pin();
  ASSERT_GE(pinned_a->probe->segments().size(), 2u);
  const Coverage coverage = ExpectSameWalks(
      pinned_a->engine->verifier(), pinned_b->engine->verifier(), rows_,
      kSeeds, SamplerRequest{}.max_probes);
  EXPECT_GE(coverage.pairs, 200u);
}

TEST_F(WalkEquivalenceTest, UncachedWalksMatchTheReference) {
  // Without the memo every lookup is an f_M evaluation, so the counts
  // compare every verifier call the two walks make.
  VerifierOptions uncached;
  uncached.enable_cache = false;
  const PcorEngine reference(data_.dataset, detector_, uncached);
  const PcorEngine subject(data_.dataset, detector_, uncached);
  const Coverage coverage = ExpectSameWalks(
      reference.verifier(), subject.verifier(), rows_, kSeeds,
      SamplerRequest{}.max_probes);
  EXPECT_GE(coverage.pairs, 200u);
}

TEST_F(WalkEquivalenceTest, ProbeCapStopsBothWalksAtTheSameStep) {
  // A cap of a few steps' probes stops the longer walks partway.
  const PcorEngine reference(data_.dataset, detector_);
  const PcorEngine subject(data_.dataset, detector_);
  const size_t t = data_.dataset.schema().total_values();
  const Coverage coverage = ExpectSameWalks(
      reference.verifier(), subject.verifier(), rows_, kSeeds, 6 * t + 1);
  EXPECT_GE(coverage.pairs, 200u);
  EXPECT_GT(coverage.capped, 0u);
  EXPECT_LT(coverage.capped, coverage.pairs);
}

}  // namespace
}  // namespace pcor
