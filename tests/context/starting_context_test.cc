#include "src/context/starting_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "tests/testing_util.h"

namespace pcor {
namespace {

class StartingContextTest : public ::testing::Test {
 protected:
  StartingContextTest()
      : grid_(testing_util::MakeSpreadGridDataset()),
        index_(grid_.dataset),
        detector_(testing_util::MakeTestDetector()),
        verifier_(index_, detector_) {}

  // Replays one random start candidate: a Bernoulli(1/2) draw per bit,
  // then V's own values set.
  ContextVec NextRandomCandidate(Rng* rng) const {
    const Schema& schema = grid_.dataset.schema();
    ContextVec c(schema.total_values());
    for (size_t bit = 0; bit < c.num_bits(); ++bit) {
      if (rng->NextBernoulli(0.5)) c.Set(bit);
    }
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      c.Set(schema.value_offset(a) + grid_.dataset.code(grid_.v_row, a));
    }
    return c;
  }

  ContextVec ExactOfV() const {
    return context_ops::ExactContext(grid_.dataset.schema(), grid_.dataset,
                                     grid_.v_row);
  }

  testing_util::GridData grid_;
  PopulationIndex index_;
  ZscoreDetector detector_;
  OutlierVerifier verifier_;
};

// The best-of-random step of the one fixed start search.
class BestOfRandomTest : public StartingContextTest {};

// Flags every row of a population, but only from its (flag_after + 1)-th
// call on: counts the detector runs each step of the start search makes.
class CallCountingDetector : public OutlierDetector {
 public:
  explicit CallCountingDetector(size_t flag_after) : flag_after_(flag_after) {}
  std::string name() const override { return "call_counting"; }
  void Detect(std::span<const double> values,
              std::vector<size_t>* flagged) const override {
    flagged->clear();
    if (++calls_ <= flag_after_) return;
    for (size_t i = 0; i < values.size(); ++i) flagged->push_back(i);
  }
  size_t calls() const { return calls_; }

 private:
  const size_t flag_after_;
  mutable size_t calls_ = 0;
};

// Flags every row of the full population and nothing in smaller ones.
class FullPopulationDetector : public OutlierDetector {
 public:
  explicit FullPopulationDetector(size_t num_rows) : num_rows_(num_rows) {}
  std::string name() const override { return "full_population"; }
  void Detect(std::span<const double> values,
              std::vector<size_t>* flagged) const override {
    flagged->clear();
    if (values.size() != num_rows_) return;
    for (size_t i = 0; i < values.size(); ++i) flagged->push_back(i);
  }

 private:
  const size_t num_rows_;
};

TEST_F(StartingContextTest, DefaultPipelineFindsAMatchingContext) {
  Rng rng(3);
  auto start =
      FindStartingContext(verifier_, grid_.v_row, StartingContextOptions{},
                          &rng);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  EXPECT_TRUE(verifier_.IsOutlierInContext(*start, grid_.v_row));
}

TEST_F(StartingContextTest, ExactRecordStrategyWorksWhenExactMatches) {
  // Without an rng the search starts at greedy growth, whose first check
  // is V's exact record.
  ASSERT_TRUE(verifier_.IsOutlierInContext(ExactOfV(), grid_.v_row));
  auto start = FindStartingContext(verifier_, grid_.v_row, {}, nullptr);
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(*start, ExactOfV());
}

TEST_F(StartingContextTest, GreedyGrowIsDeterministic) {
  // A row whose exact record does not match makes greedy growth add
  // values; with no rng nothing else runs.
  ZscoreOptions strict;
  strict.threshold = 3.0;
  strict.min_population = 20;  // V's exact group has 13 rows
  const ZscoreDetector detector(strict);
  const OutlierVerifier verifier(index_, detector);
  ASSERT_FALSE(verifier.IsOutlierInContext(ExactOfV(), grid_.v_row));
  auto a = FindStartingContext(verifier, grid_.v_row, {}, nullptr);
  auto b = FindStartingContext(verifier, grid_.v_row, {}, nullptr);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(verifier.IsOutlierInContext(*a, grid_.v_row));
  EXPECT_NE(*a, ExactOfV());
}

TEST_F(StartingContextTest, RandomValidFindsContextContainingV) {
  // Count the detector runs of greedy growth when nothing ever matches.
  VerifierOptions no_cache;
  no_cache.enable_cache = false;
  size_t greedy_calls = 0;
  {
    const CallCountingDetector never(SIZE_MAX);
    const OutlierVerifier verifier(index_, never, no_cache);
    EXPECT_TRUE(FindStartingContext(verifier, grid_.v_row, {}, nullptr)
                    .status()
                    .IsNoValidContext());
    greedy_calls = never.calls();
  }
  ASSERT_GT(greedy_calls, 0u);
  // Matching starts right after best-of-8 and greedy growth have run and
  // failed, so the first random-valid candidate wins: the 9th random
  // context drawn from the rng.
  const CallCountingDetector late(8 + greedy_calls);
  const OutlierVerifier verifier(index_, late, no_cache);
  Rng rng(7);
  auto start = FindStartingContext(verifier, grid_.v_row, {}, &rng);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  EXPECT_EQ(late.calls(), 8 + greedy_calls + 1);
  Rng replay(7);
  ContextVec ninth;
  for (int i = 0; i < 9; ++i) ninth = NextRandomCandidate(&replay);
  EXPECT_EQ(*start, ninth);
  EXPECT_TRUE(context_ops::ContainsRow(grid_.dataset.schema(), grid_.dataset,
                                       grid_.v_row, *start));
}

TEST_F(StartingContextTest, NonOutlierRowFailsWithNoValidContext) {
  Rng rng(9);
  auto start =
      FindStartingContext(verifier_, /*v_row=*/0, StartingContextOptions{},
                          &rng);
  EXPECT_TRUE(start.status().IsNoValidContext());
}

TEST_F(StartingContextTest, OutOfRangeRowIsRejected) {
  Rng rng(11);
  auto start = FindStartingContext(verifier_, grid_.dataset.num_rows() + 1,
                                   StartingContextOptions{}, &rng);
  EXPECT_TRUE(start.status().IsOutOfRange());
}

TEST_F(StartingContextTest, FullDomainStrategyChecksTheFullContext) {
  // Greedy growth ends at the full domain: when only the full context
  // matches, that is what the search returns.
  const FullPopulationDetector detector(grid_.dataset.num_rows());
  const OutlierVerifier verifier(index_, detector);
  auto start = FindStartingContext(verifier, grid_.v_row, {}, nullptr);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  EXPECT_EQ(*start, context_ops::FullContext(grid_.dataset.schema()));
}

TEST_F(BestOfRandomTest, ReturnsAMatchingContext) {
  Rng rng(3);
  auto start = FindStartingContext(verifier_, grid_.v_row, {}, &rng);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  EXPECT_TRUE(verifier_.IsOutlierInContext(*start, grid_.v_row));
}

TEST_F(BestOfRandomTest, PicksTheLargestOfItsCandidates) {
  // Replay the same 8-candidate stream manually and check the search
  // returned the max-population matching candidate.
  Rng rng(77);
  auto start = FindStartingContext(verifier_, grid_.v_row, {}, &rng);
  ASSERT_TRUE(start.ok());

  Rng replay(77);
  size_t best_pop = 0;
  for (size_t i = 0; i < 8; ++i) {
    const ContextVec c = NextRandomCandidate(&replay);
    if (verifier_.IsOutlierInContext(c, grid_.v_row)) {
      best_pop = std::max(best_pop, index_.PopulationCount(c));
    }
  }
  ASSERT_GT(best_pop, 0u);
  EXPECT_EQ(index_.PopulationCount(*start), best_pop);
}

TEST_F(BestOfRandomTest, RequiresRngAndFallsThroughWithoutIt) {
  // Best-of-random is skipped without an rng; greedy growth still finds
  // V's exact record.
  auto start =
      FindStartingContext(verifier_, grid_.v_row, {}, /*rng=*/nullptr);
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(*start, ExactOfV());
}

TEST_F(BestOfRandomTest, DefaultPipelineStartsWithBestOfRandom) {
  // When a random candidate matches, the search draws exactly 8
  // candidates and nothing else from the rng.
  Rng rng(5);
  ASSERT_TRUE(FindStartingContext(verifier_, grid_.v_row, {}, &rng).ok());
  Rng replay(5);
  for (int i = 0; i < 8; ++i) NextRandomCandidate(&replay);
  EXPECT_EQ(rng.Next(), replay.Next());
}

}  // namespace
}  // namespace pcor
