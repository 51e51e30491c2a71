#include "sampling/rng.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace dplearn {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleOpenNeverZeroOrOne) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDoubleOpen();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// No seed is known to reach the all-ones draw, so the ends of the open
// interval are pinned through the bits-to-double map itself.
TEST(RngTest, OpenUnitFromBitsStaysInsideTheOpenIntervalAtBothEnds) {
  const double top = Rng::OpenUnitFromBits(~std::uint64_t{0});
  const double bottom = Rng::OpenUnitFromBits(0);
  EXPECT_EQ(top, 0x1.fffffffffffffp-1);  // 1 − 2⁻⁵³, not (2⁵³ − 0.5)·2⁻⁵³ → 1.0
  EXPECT_EQ(bottom, 0x1p-54);
  // The next draw down keeps its old value, 1 − 2⁻⁵².
  EXPECT_EQ(Rng::OpenUnitFromBits(~std::uint64_t{0} - (std::uint64_t{1} << 11)),
            0x1.ffffffffffffep-1);
  // What the samplers make of the ends: SampleLaplace's log1p(−2|u − ½|)
  // and the Gumbel noise −log(−log u) stay finite, G ∈ [−3.62, 36.74].
  EXPECT_TRUE(std::isfinite(std::log1p(-2.0 * std::fabs(top - 0.5))));
  EXPECT_NEAR(-std::log(-std::log(top)), 36.74, 0.005);
  EXPECT_NEAR(-std::log(-std::log(bottom)), -3.62, 0.005);
}

TEST(RngTest, OpenUnitFromBitsKeepsEveryOtherDrawsBits) {
  Rng bits(31);
  Rng single(31);
  Rng batched(31);
  std::vector<double> batch(4096);
  batched.NextDoubleOpenBatch(batch.data(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t raw = bits.NextUint64();
    const double old_formula = (static_cast<double>(raw >> 11) + 0.5) * 0x1.0p-53;
    ASSERT_LT(old_formula, 1.0);
    EXPECT_EQ(Rng::OpenUnitFromBits(raw), old_formula);
    EXPECT_EQ(single.NextDoubleOpen(), old_formula);
    EXPECT_EQ(batch[i], old_formula);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(123);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(8)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, 4.0 * std::sqrt(n / 8.0));
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, SplitProducesIndependentStreams) {
  Rng parent(99);
  Rng child1 = parent.Split();
  Rng child2 = parent.Split();
  // Children differ from each other and from the parent's continuation.
  std::set<std::uint64_t> firsts = {child1.NextUint64(), child2.NextUint64(),
                                    parent.NextUint64()};
  EXPECT_EQ(firsts.size(), 3u);
}

TEST(RngTest, CopyPreservesStream) {
  Rng a(17);
  a.NextUint64();
  Rng b = a;
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

// The parallel trial engine hands trial t the t-th Split() of a base RNG.
// These tests pin the properties that contract relies on.

TEST(RngSplitTest, SplitSequenceIsReproducible) {
  // Splitting twice from identically-seeded parents yields identical
  // children, stream by stream — the foundation of thread-count-invariant
  // trial results.
  Rng parent_a(2024);
  Rng parent_b(2024);
  for (int s = 0; s < 16; ++s) {
    Rng child_a = parent_a.Split();
    Rng child_b = parent_b.Split();
    for (int i = 0; i < 64; ++i) EXPECT_EQ(child_a.NextUint64(), child_b.NextUint64());
  }
}

TEST(RngSplitTest, SiblingStreamsDoNotCollide) {
  // 64 sibling streams, 32 draws each: all 2048 values distinct. xoshiro
  // state is 256-bit, so any collision here would indicate broken seeding.
  Rng parent(31337);
  std::set<std::uint64_t> values;
  const int kSiblings = 64;
  const int kDraws = 32;
  for (int s = 0; s < kSiblings; ++s) {
    Rng child = parent.Split();
    for (int i = 0; i < kDraws; ++i) values.insert(child.NextUint64());
  }
  EXPECT_EQ(values.size(), static_cast<std::size_t>(kSiblings * kDraws));
}

TEST(RngSplitTest, SiblingStreamsAreUncorrelated) {
  // Pairwise bit agreement between adjacent sibling streams should hover
  // around 50% — a crude but effective independence check.
  Rng parent(555);
  Rng previous = parent.Split();
  for (int s = 0; s < 8; ++s) {
    Rng current = parent.Split();
    Rng prev_copy = previous;
    Rng curr_copy = current;
    int agreeing_bits = 0;
    const int kWords = 256;
    for (int i = 0; i < kWords; ++i) {
      const std::uint64_t same = ~(prev_copy.NextUint64() ^ curr_copy.NextUint64());
      agreeing_bits += __builtin_popcountll(same);
    }
    const double fraction = static_cast<double>(agreeing_bits) / (64.0 * kWords);
    EXPECT_NEAR(fraction, 0.5, 0.05);
    previous = current;
  }
}

TEST(RngSplitTest, SplitOfSplitIsReproducible) {
  // Nested splits (a trial body that itself splits its stream) stay
  // deterministic: the grandchild depends only on the split path, not on
  // any global state.
  Rng root_a(777);
  Rng root_b(777);
  Rng child_a = root_a.Split();
  Rng child_b = root_b.Split();
  Rng grandchild_a = child_a.Split();
  Rng grandchild_b = child_b.Split();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(grandchild_a.NextUint64(), grandchild_b.NextUint64());
  }
}

TEST(RngSplitTest, SplitDoesNotPerturbSiblingDraws) {
  // Drawing from one child must not affect a sibling's stream: children
  // own disjoint state after construction.
  Rng parent_a(4242);
  Rng parent_b(4242);
  Rng child_a1 = parent_a.Split();
  Rng child_a2 = parent_a.Split();
  Rng child_b1 = parent_b.Split();
  Rng child_b2 = parent_b.Split();
  for (int i = 0; i < 1000; ++i) child_a1.NextUint64();  // exercise a1 only
  (void)child_b1;
  for (int i = 0; i < 64; ++i) EXPECT_EQ(child_a2.NextUint64(), child_b2.NextUint64());
}

}  // namespace
}  // namespace dplearn
