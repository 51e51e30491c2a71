#include "learning/risk.h"

#include <cmath>

#include <gtest/gtest.h>
#include "learning/generators.h"
#include "learning/hypothesis.h"

#include "custom_loss_twin.h"

namespace dplearn {
namespace {

Dataset BernoulliData(std::size_t zeros, std::size_t ones) {
  Dataset d;
  for (std::size_t i = 0; i < zeros; ++i) d.Add(Example{Vector{1.0}, 0.0});
  for (std::size_t i = 0; i < ones; ++i) d.Add(Example{Vector{1.0}, 1.0});
  return d;
}

TEST(EmpiricalRiskTest, BernoulliSquaredClosedForm) {
  // R̂(theta) = theta^2 - 2 theta k/n + k/n for squared loss on bits.
  ClippedSquaredLoss loss(1.0);
  Dataset d = BernoulliData(6, 4);  // k/n = 0.4
  for (double theta : {0.0, 0.25, 0.5, 1.0}) {
    const double expected = theta * theta - 2.0 * theta * 0.4 + 0.4;
    EXPECT_NEAR(EmpiricalRisk(loss, {theta}, d).value(), expected, 1e-12);
  }
}

TEST(EmpiricalRiskTest, RejectsEmptyDataset) {
  ClippedSquaredLoss loss(1.0);
  EXPECT_FALSE(EmpiricalRisk(loss, {0.5}, Dataset()).ok());
}

TEST(EmpiricalRiskTest, DimensionMismatchIsInvalidArgumentOnBothPaths) {
  // Every loss reads θ·x, so a θ or an example without the data's
  // FeatureDim() features is an error, on the kernel path and on the
  // virtual path a custom loss (here the kernel loss's twin) runs.
  const ClippedSquaredLoss kernel(1.0);
  const CustomTwin<ClippedSquaredLoss> twin(1.0);
  const Dataset two_features({Example{Vector{1.0, 0.5}, 1.0}, Example{Vector{0.5, 1.0}, 0.0}});
  const Dataset ragged({Example{Vector{1.0}, 1.0}, Example{Vector{1.0, 0.5}, 0.0}});
  const LossFunction* const paths[] = {&kernel, &twin};
  for (const LossFunction* loss : paths) {
    EXPECT_EQ(EmpiricalRisk(*loss, {0.5}, two_features).status().code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    EXPECT_EQ(EmpiricalRiskProfile(*loss, {{0.5, 0.5}, {0.5}}, two_features).status().code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    EXPECT_EQ(EmpiricalRisk(*loss, {0.5}, ragged).status().code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    EXPECT_EQ(EmpiricalRiskProfile(*loss, {{0.5}, {0.25}}, ragged).status().code(),
              StatusCode::kInvalidArgument)
        << loss->Name();
    EXPECT_TRUE(EmpiricalRisk(*loss, {0.5, 0.5}, two_features).ok()) << loss->Name();
  }
}

TEST(EmpiricalRiskProfileTest, MatchesPerHypothesisRisks) {
  ClippedSquaredLoss loss(1.0);
  Dataset d = BernoulliData(5, 5);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 5).value();
  auto profile = EmpiricalRiskProfile(loss, hclass.thetas(), d);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile->size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR((*profile)[i], EmpiricalRisk(loss, hclass.at(i), d).value(), 1e-15);
  }
  // Minimum at theta = 0.5 (the empirical mean).
  std::size_t argmin = hclass.ArgMin(*profile).value();
  EXPECT_EQ(hclass.at(argmin)[0], 0.5);
}

TEST(EmpiricalRiskProfileTest, RejectsEmptyInputs) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 3).value();
  EXPECT_FALSE(EmpiricalRiskProfile(loss, hclass.thetas(), Dataset()).ok());
  EXPECT_FALSE(EmpiricalRiskProfile(loss, {}, BernoulliData(1, 1)).ok());
}

TEST(MonteCarloTrueRiskTest, ConvergesToClosedForm) {
  auto task = BernoulliMeanTask::Create(0.3).value();
  ClippedSquaredLoss loss(1.0);
  Rng rng(1);
  Dataset fresh = task.Sample(200000, &rng).value();
  const double theta = 0.45;
  EXPECT_NEAR(EmpiricalRisk(loss, {theta}, fresh).value(), task.TrueRisk(theta), 0.005);
}

TEST(SensitivityBoundTest, IsLossBoundOverN) {
  ClippedSquaredLoss loss(1.0);
  EXPECT_NEAR(EmpiricalRiskSensitivityBound(loss, 50).value(), 1.0 / 50.0, 1e-15);
  ClippedSquaredLoss wide(4.0);
  EXPECT_NEAR(EmpiricalRiskSensitivityBound(wide, 10).value(), 0.4, 1e-15);
  EXPECT_FALSE(EmpiricalRiskSensitivityBound(loss, 0).ok());
}

TEST(ExactRiskSensitivityTest, TighterThanGenericBound) {
  // On the Bernoulli domain with theta in [0,1], the loss spread at theta is
  // |theta^2 - (1-theta)^2| = |2 theta - 1| <= 1, attained at theta in {0,1}.
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.25, 0.75, 11).value();
  const std::size_t n = 20;
  auto exact =
      ExactRiskSensitivity(loss, hclass.thetas(), BernoulliMeanTask::Domain(), n);
  ASSERT_TRUE(exact.ok());
  const double generic = EmpiricalRiskSensitivityBound(loss, n).value();
  // Spread maximized at theta=0.25 or 0.75: |2*0.75-1| = 0.5.
  EXPECT_NEAR(*exact, 0.5 / static_cast<double>(n), 1e-12);
  EXPECT_LT(*exact, generic);
}

TEST(ExactRiskSensitivityTest, MatchesGenericBoundAtFullGrid) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 3).value();
  auto exact =
      ExactRiskSensitivity(loss, hclass.thetas(), BernoulliMeanTask::Domain(), 10);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(*exact, 0.1, 1e-12);  // |2*1-1|/10
}

TEST(ExactRiskSensitivityTest, Validation) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 3).value();
  EXPECT_FALSE(ExactRiskSensitivity(loss, {}, BernoulliMeanTask::Domain(), 10).ok());
  EXPECT_FALSE(ExactRiskSensitivity(loss, hclass.thetas(), {}, 10).ok());
  EXPECT_FALSE(
      ExactRiskSensitivity(loss, hclass.thetas(), BernoulliMeanTask::Domain(), 0).ok());
}

}  // namespace
}  // namespace dplearn
