#include "learning/preprocess.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dplearn {
namespace {

Dataset MakeData() {
  Dataset d;
  d.Add(Example{Vector{3.0, 4.0}, 10.0});   // norm 5
  d.Add(Example{Vector{0.3, 0.4}, -10.0});  // norm 0.5
  d.Add(Example{Vector{0.0, 0.0}, 0.5});    // norm 0
  return d;
}

TEST(ClipFeatureNormTest, ClipsOnlyOversizedRecords) {
  auto clipped = ClipFeatureNorm(MakeData(), 1.0);
  ASSERT_TRUE(clipped.ok());
  EXPECT_NEAR(Norm2(clipped->at(0).features), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(clipped->at(0).features[0] / clipped->at(0).features[1], 0.75, 1e-12);
  // Under-norm records untouched.
  EXPECT_EQ(clipped->at(1).features, (Vector{0.3, 0.4}));
  EXPECT_EQ(clipped->at(2).features, (Vector{0.0, 0.0}));
  // Labels untouched.
  EXPECT_EQ(clipped->at(0).label, 10.0);
  EXPECT_FALSE(ClipFeatureNorm(MakeData(), 0.0).ok());
}

TEST(ClipFeatureNormTest, PostconditionHoldsForAllRecords) {
  auto clipped = ClipFeatureNorm(MakeData(), 0.2).value();
  for (const Example& z : clipped.examples()) {
    EXPECT_LE(Norm2(z.features), 0.2 + 1e-12);
  }
}

TEST(ClipLabelsTest, ClampsIntoRange) {
  auto clipped = ClipLabels(MakeData(), -1.0, 1.0);
  ASSERT_TRUE(clipped.ok());
  EXPECT_EQ(clipped->at(0).label, 1.0);
  EXPECT_EQ(clipped->at(1).label, -1.0);
  EXPECT_EQ(clipped->at(2).label, 0.5);
  EXPECT_FALSE(ClipLabels(MakeData(), 1.0, 1.0).ok());
}

TEST(PreprocessPipelineTest, MakesCmsPreconditionsTrue) {
  // The composed pipeline yields ||x|| <= 1 and labels in {-1, 1}.
  Dataset raw;
  raw.Add(Example{Vector{10.0, -3.0}, 5.0});
  raw.Add(Example{Vector{0.1, 0.2}, -3.0});
  auto step1 = ClipFeatureNorm(raw, 1.0).value();
  auto step2 = ClipLabels(step1, -1.0, 1.0).value();
  for (const Example& z : step2.examples()) {
    EXPECT_LE(Norm2(z.features), 1.0 + 1e-12);
    EXPECT_GE(z.label, -1.0);
    EXPECT_LE(z.label, 1.0);
  }
}

}  // namespace
}  // namespace dplearn
