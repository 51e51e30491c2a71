#include "learning/dataset.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>
#include "learning/hypothesis.h"

namespace dplearn {
namespace {

Example Ex(double x, double y) { return Example{Vector{x}, y}; }

TEST(DatasetTest, BasicAccessors) {
  Dataset d({Ex(1.0, 0.0), Ex(2.0, 1.0)});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.at(1).label, 1.0);
  EXPECT_EQ(d.FeatureDim(), 1u);
  Dataset empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.FeatureDim(), 0u);
}

TEST(DatasetTest, AddAppends) {
  Dataset d;
  d.Add(Ex(1.0, 1.0));
  d.Add(Ex(2.0, 0.0));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.at(0).features[0], 1.0);
}

TEST(DatasetTest, ReplaceExampleCreatesNeighbor) {
  Dataset d({Ex(1.0, 0.0), Ex(2.0, 1.0), Ex(3.0, 0.0)});
  auto neighbor = d.ReplaceExample(1, Ex(9.0, 1.0));
  ASSERT_TRUE(neighbor.ok());
  EXPECT_TRUE(d.IsNeighborOf(*neighbor));
  EXPECT_TRUE(neighbor->IsNeighborOf(d));
  EXPECT_EQ(neighbor->at(1).features[0], 9.0);
  EXPECT_EQ(d.at(1).features[0], 2.0);  // original unchanged
  EXPECT_FALSE(d.ReplaceExample(3, Ex(1.0, 1.0)).ok());
}

TEST(DatasetTest, IsNeighborOfRequiresExactlyOneDifference) {
  Dataset d({Ex(1.0, 0.0), Ex(2.0, 1.0)});
  EXPECT_FALSE(d.IsNeighborOf(d));  // zero differences
  Dataset two_diff({Ex(9.0, 0.0), Ex(8.0, 1.0)});
  EXPECT_FALSE(d.IsNeighborOf(two_diff));
  Dataset different_size({Ex(1.0, 0.0)});
  EXPECT_FALSE(d.IsNeighborOf(different_size));
  Dataset one_diff({Ex(1.0, 0.0), Ex(7.0, 1.0)});
  EXPECT_TRUE(d.IsNeighborOf(one_diff));
}

TEST(DatasetTest, SplitPartitionsAllExamples) {
  Dataset d;
  for (int i = 0; i < 100; ++i) d.Add(Ex(static_cast<double>(i), 0.0));
  Rng rng(1);
  auto parts = d.Split(0.7, &rng);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->first.size(), 70u);
  EXPECT_EQ(parts->second.size(), 30u);
  // Every original example appears exactly once across both parts.
  std::vector<int> seen(100, 0);
  for (const Example& z : parts->first.examples()) {
    ++seen[static_cast<int>(z.features[0])];
  }
  for (const Example& z : parts->second.examples()) {
    ++seen[static_cast<int>(z.features[0])];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(DatasetTest, SplitValidation) {
  Rng rng(1);
  Dataset empty;
  EXPECT_FALSE(empty.Split(0.5, &rng).ok());
  Dataset d({Ex(1.0, 0.0), Ex(2.0, 0.0)});
  EXPECT_FALSE(d.Split(0.0, &rng).ok());
  EXPECT_FALSE(d.Split(1.0, &rng).ok());
}

TEST(EnumerateNeighborsTest, CountsAndValidity) {
  Dataset d({Ex(1.0, 0.0), Ex(1.0, 1.0)});
  std::vector<Example> domain = {Ex(1.0, 0.0), Ex(1.0, 1.0)};
  const std::vector<Dataset> neighbors = EnumerateNeighbors(d, domain);
  // Each of the 2 positions has 1 non-identical replacement.
  ASSERT_EQ(neighbors.size(), 2u);
  for (const Dataset& nb : neighbors) {
    EXPECT_TRUE(d.IsNeighborOf(nb));
  }
}

TEST(EnumerateNeighborsTest, SkipsIdenticalReplacements) {
  Dataset d({Ex(1.0, 0.0)});
  std::vector<Example> domain = {Ex(1.0, 0.0)};
  EXPECT_TRUE(EnumerateNeighbors(d, domain).empty());
}

TEST(EnumerateNeighborsTest, LargerDomain) {
  Dataset d({Ex(1.0, 0.0), Ex(1.0, 1.0), Ex(1.0, 0.0)});
  std::vector<Example> domain = {Ex(1.0, 0.0), Ex(1.0, 1.0), Ex(1.0, 2.0)};
  // Position 0: replacements {1,2} -> 2; position 1: {0,2} -> 2; position 2: 2.
  EXPECT_EQ(EnumerateNeighbors(d, domain).size(), 6u);
}

// Content identity (DESIGN.md §10.1): equal generations mean bitwise-equal
// examples across objects, so only copies may share one.

TEST(DatasetIdentityTest, CopiesShareTheGenerationAndMutationsTakeFreshOnes) {
  Dataset source({Ex(1.0, 0.0), Ex(2.0, 1.0)});
  const Dataset copy(source);
  EXPECT_EQ(copy.generation(), source.generation());
  Dataset assigned;
  assigned = source;
  EXPECT_EQ(assigned.generation(), source.generation());

  std::set<std::uint64_t> seen = {source.generation()};
  source.Add(Ex(3.0, 0.0));
  EXPECT_TRUE(seen.insert(source.generation()).second) << "Add reused a generation";
  ASSERT_TRUE(source.SetLabel(0, 1.0).ok());
  EXPECT_TRUE(seen.insert(source.generation()).second) << "SetLabel reused a generation";
  // Writing the label it already has still takes a fresh generation.
  ASSERT_TRUE(source.SetLabel(0, 1.0).ok());
  EXPECT_TRUE(seen.insert(source.generation()).second);
  // The copies kept their generation and their content.
  EXPECT_EQ(copy.generation(), assigned.generation());
  EXPECT_EQ(copy.size(), 2u);
}

TEST(DatasetIdentityTest, MoveHandsOverTheGenerationAndRenewsTheSource) {
  Dataset source({Ex(1.0, 0.0), Ex(2.0, 1.0)});
  const std::uint64_t before = source.generation();
  const std::uint64_t hash = source.content_hash();
  Dataset target(std::move(source));
  EXPECT_EQ(target.generation(), before);
  EXPECT_EQ(target.content_hash(), hash);
  EXPECT_NE(source.generation(), before);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(source.empty());              // NOLINT(bugprone-use-after-move)

  Dataset assigned;
  const std::uint64_t target_generation = target.generation();
  assigned = std::move(target);
  EXPECT_EQ(assigned.generation(), target_generation);
  EXPECT_NE(target.generation(), target_generation);  // NOLINT(bugprone-use-after-move)
  EXPECT_NE(target.generation(), source.generation());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(target.empty());                          // NOLINT(bugprone-use-after-move)
}

TEST(DatasetIdentityTest, EqualContentBuiltApartHasOneHashButTwoGenerations) {
  const Dataset a({Ex(1.0, 0.0), Ex(2.0, 1.0), Ex(0.5, 1.0)});
  const Dataset b({Ex(1.0, 0.0), Ex(2.0, 1.0), Ex(0.5, 1.0)});
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_EQ(a.content_hash(), b.content_hash());
  // Memoized: a second call returns the same value.
  EXPECT_EQ(a.content_hash(), a.content_hash());
  // Bitwise, not numeric: -0.0 is a different key from 0.0.
  const Dataset negative_zero({Ex(1.0, -0.0), Ex(2.0, 1.0), Ex(0.5, 1.0)});
  EXPECT_NE(negative_zero.content_hash(), a.content_hash());
}

TEST(DatasetIdentityTest, ContentHashDoesNotDependOnHowTheDatasetWasBuilt) {
  const std::vector<Example> examples = {Ex(1.0, 1.0), Ex(1.0, 1.0), Ex(1.0, 0.0)};
  const Dataset constructed(examples);

  Dataset added;
  for (const Example& z : examples) added.Add(z);

  // A SetLabel walk from all zeros, hashing on the way so the memo is
  // exercised at every step.
  Dataset walked({Ex(1.0, 0.0), Ex(1.0, 0.0), Ex(1.0, 0.0)});
  std::uint64_t previous = walked.content_hash();
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(walked.SetLabel(i, 1.0).ok());
    EXPECT_NE(walked.content_hash(), previous);
    previous = walked.content_hash();
  }

  EXPECT_EQ(added.content_hash(), constructed.content_hash());
  EXPECT_EQ(walked.content_hash(), constructed.content_hash());
  EXPECT_NE(Dataset().content_hash(), constructed.content_hash());
}

TEST(FiniteHypothesisClassIdentityTest, CopiesShareOneListAndOneId) {
  const FiniteHypothesisClass grid = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  const FiniteHypothesisClass copy = grid;
  FiniteHypothesisClass moved_from = grid;
  const FiniteHypothesisClass moved(std::move(moved_from));
  const FiniteHypothesisClass& kept = moved_from;
  for (const FiniteHypothesisClass* c : {&copy, &moved, &kept}) {
    EXPECT_EQ(c->id(), grid.id());
    EXPECT_EQ(&c->thetas(), &grid.thetas());
    EXPECT_EQ(c->content_hash(), grid.content_hash());
  }
  // Built apart: a new id, the same content hash.
  const FiniteHypothesisClass twin = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  EXPECT_NE(twin.id(), grid.id());
  EXPECT_NE(&twin.thetas(), &grid.thetas());
  EXPECT_EQ(twin.content_hash(), grid.content_hash());
  EXPECT_EQ(ThetaContentHash(grid.thetas()), grid.content_hash());
}

}  // namespace
}  // namespace dplearn
