#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/context/coe.h"
#include "src/context/starting_context.h"
#include "src/search/bfs.h"
#include "src/search/dfs.h"
#include "src/search/direct.h"
#include "src/search/random_walk.h"
#include "src/search/sampler.h"
#include "src/search/uniform.h"
#include "tests/testing_util.h"

namespace pcor {
namespace {

class SamplersTest : public ::testing::Test {
 protected:
  SamplersTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        index_(grid_.dataset),
        detector_(testing_util::MakeTestDetector()),
        verifier_(index_, detector_),
        utility_(verifier_) {
    Rng rng(1);
    auto start = FindStartingContext(verifier_, grid_.v_row,
                                     StartingContextOptions{}, &rng);
    start.status().CheckOK();
    start_ = *start;
  }

  SamplerRequest MakeRequest(size_t num_samples = 10) {
    SamplerRequest request;
    request.verifier = &verifier_;
    request.utility = &utility_;
    request.v_row = grid_.v_row;
    request.start_context = start_;
    request.num_samples = num_samples;
    request.epsilon1 = 0.05;
    return request;
  }

  void ExpectAllMatching(const SamplerOutcome& outcome) {
    for (const auto& c : outcome.samples) {
      EXPECT_TRUE(verifier_.IsOutlierInContext(c, grid_.v_row))
          << c.ToBitString();
    }
  }

  testing_util::GridData grid_;
  PopulationIndex index_;
  ZscoreDetector detector_;
  OutlierVerifier verifier_;
  PopulationSizeUtility utility_;
  ContextVec start_;
};

TEST_F(SamplersTest, FactoryBuildsEveryKind) {
  for (SamplerKind kind :
       {SamplerKind::kDirect, SamplerKind::kUniform, SamplerKind::kRandomWalk,
        SamplerKind::kDfs, SamplerKind::kBfs}) {
    auto sampler = MakeSampler(kind);
    ASSERT_NE(sampler, nullptr);
    EXPECT_EQ(sampler->kind(), kind);
  }
}

TEST_F(SamplersTest, DirectReturnsTheFullCoe) {
  DirectSampler sampler;
  Rng rng(2);
  auto outcome = sampler.Sample(MakeRequest(), &rng);
  ASSERT_TRUE(outcome.ok());
  auto coe = EnumerateCoe(verifier_, grid_.v_row);
  ASSERT_TRUE(coe.ok());
  auto sorted = outcome->samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, *coe);
}

TEST_F(SamplersTest, UniformSamplesAreMatching) {
  UniformSampler sampler;
  Rng rng(3);
  auto outcome = sampler.Sample(MakeRequest(5), &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->samples.size(), 5u);
  ExpectAllMatching(*outcome);
  EXPECT_GE(outcome->probes, outcome->samples.size());
}

TEST_F(SamplersTest, UniformHonorsProbeCap) {
  UniformSampler sampler;
  SamplerRequest request = MakeRequest(1000000);
  request.max_probes = 200;
  Rng rng(4);
  auto outcome = sampler.Sample(request, &rng);
  // Either it found nothing (error) or stopped at the cap.
  if (outcome.ok()) {
    EXPECT_TRUE(outcome->hit_probe_cap);
    EXPECT_LE(outcome->probes, 200u);
  } else {
    EXPECT_TRUE(outcome.status().IsNoValidContext());
  }
}

TEST_F(SamplersTest, RandomWalkStartsAtCv) {
  RandomWalkSampler sampler;
  Rng rng(5);
  auto outcome = sampler.Sample(MakeRequest(8), &rng);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->samples.empty());
  EXPECT_EQ(outcome->samples.front(), start_);
  ExpectAllMatching(*outcome);
}

TEST_F(SamplersTest, RandomWalkStepsAreConnected) {
  RandomWalkSampler sampler;
  Rng rng(6);
  auto outcome = sampler.Sample(MakeRequest(8), &rng);
  ASSERT_TRUE(outcome.ok());
  for (size_t i = 1; i < outcome->samples.size(); ++i) {
    EXPECT_EQ(
        outcome->samples[i - 1].HammingDistance(outcome->samples[i]), 1u);
  }
}

TEST_F(SamplersTest, RandomWalkRejectsNonMatchingStart) {
  RandomWalkSampler sampler;
  SamplerRequest request = MakeRequest();
  request.start_context = ContextVec(grid_.dataset.schema().total_values());
  Rng rng(7);
  EXPECT_TRUE(sampler.Sample(request, &rng).status().IsInvalidArgument());
}

TEST_F(SamplersTest, DfsVisitsMatchingContextsUpToN) {
  DfsSampler sampler;
  Rng rng(8);
  auto outcome = sampler.Sample(MakeRequest(6), &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->samples.size(), 6u);
  EXPECT_EQ(outcome->samples.front(), start_);
  ExpectAllMatching(*outcome);
  // Visited contexts are unique (a set in Algorithm 4).
  auto sorted = outcome->samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST_F(SamplersTest, DfsRequiresUtility) {
  DfsSampler sampler;
  SamplerRequest request = MakeRequest();
  request.utility = nullptr;
  Rng rng(9);
  EXPECT_TRUE(sampler.Sample(request, &rng).status().IsInvalidArgument());
}

TEST_F(SamplersTest, BfsVisitsMatchingContextsUpToN) {
  BfsSampler sampler;
  Rng rng(10);
  auto outcome = sampler.Sample(MakeRequest(6), &rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome->samples.size(), 6u);
  ExpectAllMatching(*outcome);
  auto sorted = outcome->samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST_F(SamplersTest, BfsSamplesAreReachableFromEarlierSamples) {
  BfsSampler sampler;
  Rng rng(11);
  auto outcome = sampler.Sample(MakeRequest(8), &rng);
  ASSERT_TRUE(outcome.ok());
  // Every visited context after the first is Hamming-1 from some earlier
  // visited context (it entered the frontier as a neighbor).
  for (size_t i = 1; i < outcome->samples.size(); ++i) {
    bool connected = false;
    for (size_t j = 0; j < i; ++j) {
      if (outcome->samples[j].HammingDistance(outcome->samples[i]) == 1) {
        connected = true;
        break;
      }
    }
    EXPECT_TRUE(connected) << "sample " << i << " unreachable";
  }
}

TEST_F(SamplersTest, GraphSamplersAreDeterministicGivenSeed) {
  for (SamplerKind kind : {SamplerKind::kRandomWalk, SamplerKind::kDfs,
                           SamplerKind::kBfs, SamplerKind::kUniform}) {
    auto sampler = MakeSampler(kind);
    Rng rng1(99), rng2(99);
    auto a = sampler->Sample(MakeRequest(6), &rng1);
    auto b = sampler->Sample(MakeRequest(6), &rng2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->samples, b->samples) << SamplerKindName(kind);
  }
}

TEST_F(SamplersTest, BfsPrefersLargePopulationsMoreThanRandomWalk) {
  // Directed search should, on average, visit larger-population contexts
  // than the undirected walk (the paper's utility-gap explanation).
  RandomWalkSampler rwalk;
  BfsSampler bfs;
  double rwalk_avg = 0, bfs_avg = 0;
  size_t trials = 20;
  for (size_t trial = 0; trial < trials; ++trial) {
    Rng rng1(1000 + trial), rng2(1000 + trial);
    auto r = rwalk.Sample(MakeRequest(10), &rng1);
    auto b = bfs.Sample(MakeRequest(10), &rng2);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(b.ok());
    double rsum = 0, bsum = 0;
    for (const auto& c : r->samples) rsum += index_.PopulationCount(c);
    for (const auto& c : b->samples) bsum += index_.PopulationCount(c);
    rwalk_avg += rsum / r->samples.size();
    bfs_avg += bsum / b->samples.size();
  }
  EXPECT_GE(bfs_avg, rwalk_avg * 0.9);
}

// Memo lookups (hits plus misses) the verifier served while `fn` ran.
template <typename Fn>
size_t MemoLookupsDuring(const OutlierVerifier& verifier, Fn fn) {
  const VerifierStats before = verifier.Stats();
  fn();
  const VerifierStats after = verifier.Stats();
  return (after.cache_hits + after.cache_misses) -
         (before.cache_hits + before.cache_misses);
}

TEST_F(SamplersTest, BfsMakesOneMemoLookupPerUnseenNeighbourContainingV) {
  // The f_M verdict and |D_C| come from one OutlierPopulation lookup, and
  // the score is taken from it: one lookup for C_V, then one per unseen
  // neighbour that contains V (the others fail the row precheck).
  BfsSampler sampler;
  for (uint64_t seed : {21, 22, 23}) {
    const SamplerRequest request = MakeRequest(8);
    {
      Rng warm(seed);
      ASSERT_TRUE(sampler.Sample(request, &warm).ok());
    }
    Rng rng(seed);
    Result<SamplerOutcome> outcome = Status::Internal("not run");
    const size_t misses_before = verifier_.Stats().cache_misses;
    const size_t lookups = MemoLookupsDuring(
        verifier_, [&] { outcome = sampler.Sample(request, &rng); });
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(verifier_.Stats().cache_misses, misses_before);  // warm

    // Replay the expansion order from the samples: BFS expands every
    // context it visits, and `seen` grows by the matching neighbours.
    std::unordered_set<ContextVec, ContextVecHash> seen{start_};
    size_t expected = 1;  // C_V's verdict and score
    size_t matches = 0;
    for (const ContextVec& current : outcome->samples) {
      ContextVec neighbor = current;
      for (size_t bit = 0; bit < neighbor.num_bits(); ++bit) {
        neighbor.Flip(bit);
        if (!seen.count(neighbor) &&
            neighbor.Covers(index_.ExactContextOf(grid_.v_row))) {
          ++expected;
          if (verifier_.IsOutlierInContext(neighbor, grid_.v_row)) {
            seen.insert(neighbor);
            ++matches;
          }
        }
        neighbor.Flip(bit);
      }
    }
    EXPECT_GT(matches, 0u) << "seed " << seed;
    EXPECT_EQ(lookups, expected) << "seed " << seed;
  }
}

TEST_F(SamplersTest, DfsMakesOneMemoLookupPerUnseenNeighbourContainingV) {
  DfsSampler sampler;
  for (uint64_t seed : {31, 32, 33}) {
    const SamplerRequest request = MakeRequest(8);
    {
      Rng warm(seed);
      ASSERT_TRUE(sampler.Sample(request, &warm).ok());
    }
    Rng rng(seed);
    Result<SamplerOutcome> outcome = Status::Internal("not run");
    const size_t misses_before = verifier_.Stats().cache_misses;
    const size_t lookups = MemoLookupsDuring(
        verifier_, [&] { outcome = sampler.Sample(request, &rng); });
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(verifier_.Stats().cache_misses, misses_before);  // warm

    // Replay the walk: the stack top is expanded each round, popped when
    // it has no unvisited matching neighbour, and otherwise the next
    // sample (one of those neighbours) is pushed.
    const std::vector<ContextVec>& samples = outcome->samples;
    std::unordered_set<ContextVec, ContextVecHash> visited;
    std::vector<ContextVec> stack{start_};
    size_t expected = 1;  // C_V's own check
    size_t next = 1;
    size_t matches = 0;
    while (visited.size() < request.num_samples && !stack.empty()) {
      const ContextVec current = stack.back();
      visited.insert(current);
      std::vector<ContextVec> children;
      ContextVec neighbor = current;
      for (size_t bit = 0; bit < neighbor.num_bits(); ++bit) {
        neighbor.Flip(bit);
        if (!visited.count(neighbor) &&
            neighbor.Covers(index_.ExactContextOf(grid_.v_row))) {
          ++expected;
          if (verifier_.IsOutlierInContext(neighbor, grid_.v_row)) {
            children.push_back(neighbor);
            ++matches;
          }
        }
        neighbor.Flip(bit);
      }
      if (children.empty()) {
        stack.pop_back();
        continue;
      }
      // With n contexts visited, the last push is never visited.
      if (visited.size() == request.num_samples) break;
      ASSERT_LT(next, samples.size()) << "seed " << seed;
      const auto child =
          std::find(children.begin(), children.end(), samples[next]);
      ASSERT_NE(child, children.end()) << "seed " << seed;
      stack.push_back(samples[next++]);
    }
    EXPECT_EQ(next, samples.size()) << "seed " << seed;
    EXPECT_GT(matches, 0u) << "seed " << seed;
    EXPECT_EQ(lookups, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pcor
