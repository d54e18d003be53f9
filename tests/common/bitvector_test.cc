#include "src/common/bitvector.h"

#include <gtest/gtest.h>

#include "src/common/random.h"

namespace pcor {
namespace {

TEST(BitVectorTest, SetClearTest) {
  BitVector b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_FALSE(b.Test(63));
  b.Set(63);
  b.Set(64);
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 1u);
}

TEST(BitVectorTest, FillAllRespectsTailBits) {
  BitVector b(70, true);
  EXPECT_EQ(b.Count(), 70u);  // bits beyond size must not be set
  b.FillAll(false);
  EXPECT_EQ(b.Count(), 0u);
  b.FillAll(true);
  EXPECT_EQ(b.Count(), 70u);
}

TEST(BitVectorTest, BooleanAlgebraMatchesManual) {
  Rng rng(3);
  const size_t n = 257;
  BitVector a(n), b(n);
  std::vector<bool> ma(n), mb(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.4)) {
      a.Set(i);
      ma[i] = true;
    }
    if (rng.NextBernoulli(0.6)) {
      b.Set(i);
      mb[i] = true;
    }
  }
  BitVector and_v = a, or_v = a;
  and_v.AndWith(b);
  or_v.OrWith(b);
  size_t expected_and = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(and_v.Test(i), ma[i] && mb[i]) << i;
    EXPECT_EQ(or_v.Test(i), ma[i] || mb[i]) << i;
    expected_and += (ma[i] && mb[i]);
  }
  EXPECT_EQ(a.AndCount(b), expected_and);
}

TEST(BitVectorTest, ToIndicesAndForEach) {
  BitVector b(130);
  b.Set(0);
  b.Set(65);
  b.Set(129);
  auto idx = b.ToIndices();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 65u);
  EXPECT_EQ(idx[2], 129u);
  size_t visits = 0;
  uint32_t last = 0;
  b.ForEachSetBit([&](uint32_t i) {
    EXPECT_GE(i, last);
    last = i;
    ++visits;
  });
  EXPECT_EQ(visits, 3u);
}

TEST(BitVectorTest, AnySetAndEquality) {
  BitVector a(10), b(10);
  EXPECT_TRUE(a.NoneSet());
  EXPECT_EQ(a, b);
  a.Set(5);
  EXPECT_TRUE(a.AnySet());
  EXPECT_FALSE(a == b);
  b.Set(5);
  EXPECT_EQ(a, b);
}

TEST(BitVectorTest, EmptyVector) {
  BitVector b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.NoneSet());
}

TEST(BitVectorTest, AssignAcrossWordAndChunkBoundaries) {
  // Sizes straddling the word boundary and 64Ki bits (kMinRowsPerShard,
  // the row count at which probes shard): Assign must leave exactly `size`
  // live bits and keep the tail of the last partial word clear, in both
  // directions of resize and both fill values.
  BitVector b(10, true);
  const size_t kChunk = size_t{1} << 16;
  const size_t sizes[] = {63,         64,         65,        128,
                          kChunk - 1, kChunk,     kChunk + 1, 5,
                          3 * kChunk + 17};
  for (const size_t n : sizes) {
    b.Assign(n, true);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(b.Count(), n) << n;  // no stray bits beyond size
    b.Assign(n, false);
    EXPECT_EQ(b.Count(), 0u) << n;
  }
}

TEST(BitVectorTest, LastPartialWordStaysCleanThroughOps) {
  // Operations that write whole words (FillAll, OrWith against a full
  // vector) must never leak bits into the dead tail of the last word,
  // which Count and AndCount would otherwise overcount.
  BitVector b(70);
  b.FillAll(true);
  BitVector full(70, true);
  b.OrWith(full);  // word-wise OR: tail must stay zero
  EXPECT_EQ(b.Count(), 70u);
  b.FillAll(true);
  EXPECT_EQ(b.AndCount(full), 70u);
  b.Set(69);  // last live bit is settable and testable
  EXPECT_TRUE(b.Test(69));
}

}  // namespace
}  // namespace pcor
