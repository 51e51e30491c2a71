#include "learning/generators.h"

#include <cmath>

#include <gtest/gtest.h>
#include "learning/loss.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

TEST(BernoulliMeanTaskTest, CreateValidation) {
  EXPECT_TRUE(BernoulliMeanTask::Create(0.0).ok());
  EXPECT_TRUE(BernoulliMeanTask::Create(1.0).ok());
  EXPECT_FALSE(BernoulliMeanTask::Create(-0.1).ok());
  EXPECT_FALSE(BernoulliMeanTask::Create(1.1).ok());
}

TEST(BernoulliMeanTaskTest, SampleFrequencyMatchesP) {
  auto task = BernoulliMeanTask::Create(0.3).value();
  Rng rng(1);
  Dataset d = task.Sample(100000, &rng).value();
  double ones = 0.0;
  for (const Example& z : d.examples()) {
    ASSERT_TRUE(z.label == 0.0 || z.label == 1.0);
    ASSERT_EQ(z.features, Vector{1.0});
    ones += z.label;
  }
  EXPECT_NEAR(ones / 100000.0, 0.3, 0.01);
}

TEST(BernoulliMeanTaskTest, TrueRiskClosedForm) {
  auto task = BernoulliMeanTask::Create(0.4).value();
  EXPECT_NEAR(task.TrueRisk(0.4), task.BayesRisk(), 1e-15);
  EXPECT_NEAR(task.TrueRisk(0.0), 0.16 + 0.24, 1e-12);
  EXPECT_NEAR(task.BayesRisk(), 0.24, 1e-12);
  // Bayes predictor is optimal.
  for (double t = 0.0; t <= 1.0; t += 0.1) {
    EXPECT_GE(task.TrueRisk(t), task.BayesRisk() - 1e-12);
  }
}

TEST(BernoulliMeanTaskTest, DatasetProbabilityIsBinomial) {
  auto task = BernoulliMeanTask::Create(0.5).value();
  // n=4, p=0.5: probabilities 1/16, 4/16, 6/16, 4/16, 1/16.
  EXPECT_NEAR(task.DatasetProbability(4, 0).value(), 1.0 / 16.0, 1e-12);
  EXPECT_NEAR(task.DatasetProbability(4, 2).value(), 6.0 / 16.0, 1e-12);
  double total = 0.0;
  for (std::size_t k = 0; k <= 4; ++k) total += task.DatasetProbability(4, k).value();
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_FALSE(task.DatasetProbability(4, 5).ok());
}

TEST(BernoulliMeanTaskTest, DatasetProbabilityDegenerateP) {
  auto zero = BernoulliMeanTask::Create(0.0).value();
  EXPECT_EQ(zero.DatasetProbability(3, 0).value(), 1.0);
  EXPECT_EQ(zero.DatasetProbability(3, 1).value(), 0.0);
  auto one = BernoulliMeanTask::Create(1.0).value();
  EXPECT_EQ(one.DatasetProbability(3, 3).value(), 1.0);
  EXPECT_EQ(one.DatasetProbability(3, 2).value(), 0.0);
}

TEST(BernoulliMeanTaskTest, DomainHasTwoExamples) {
  const std::vector<Example> domain = BernoulliMeanTask::Domain();
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_EQ(domain[0].label, 0.0);
  EXPECT_EQ(domain[1].label, 1.0);
}

TEST(LinearRegressionTaskTest, TrueRiskMatchesMonteCarlo) {
  auto task = LinearRegressionTask::Create({1.0, -2.0}, 1.0, 0.5).value();
  Rng rng(2);
  Dataset fresh = task.Sample(200000, &rng).value();
  const Vector theta = {0.5, -1.0};
  // Unclipped squared loss: use a huge clip so clipping never triggers.
  ClippedSquaredLoss loss(1e6);
  // E[((theta-w).X - noise)^2] with X_j ~ U(-1,1): sum_j (theta_j-w_j)^2/3 + 0.5^2.
  const double true_risk = (0.25 + 1.0) / 3.0 + 0.25;
  EXPECT_NEAR(EmpiricalRisk(loss, theta, fresh).value(), true_risk, 0.02);
}

TEST(LinearRegressionTaskTest, BayesPredictorHasNoiseRisk) {
  // At theta = w only the label noise remains: risk = noise_stddev^2.
  auto task = LinearRegressionTask::Create({1.0}, 2.0, 0.3).value();
  Rng rng(4);
  Dataset fresh = task.Sample(200000, &rng).value();
  ClippedSquaredLoss loss(1e6);
  EXPECT_NEAR(EmpiricalRisk(loss, {1.0}, fresh).value(), 0.09, 0.005);
}

TEST(LinearRegressionTaskTest, Validation) {
  EXPECT_FALSE(LinearRegressionTask::Create({}, 1.0, 0.1).ok());
  EXPECT_FALSE(LinearRegressionTask::Create({1.0}, 0.0, 0.1).ok());
  EXPECT_FALSE(LinearRegressionTask::Create({1.0}, 1.0, -0.1).ok());
}

TEST(GaussianMixtureTaskTest, TrueRiskClosedFormMatchesMonteCarlo) {
  auto task = GaussianMixtureTask::Create({1.0, 0.5}, 1.0).value();
  Rng rng(4);
  Dataset fresh = task.Sample(200000, &rng).value();
  ZeroOneLoss loss;
  const Vector theta = {1.0, 1.0};
  EXPECT_NEAR(EmpiricalRisk(loss, theta, fresh).value(), task.TrueZeroOneRisk(theta), 0.005);
}

TEST(GaussianMixtureTaskTest, BayesRiskAttainedAtMeanDirection) {
  auto task = GaussianMixtureTask::Create({2.0, 0.0}, 1.0).value();
  EXPECT_NEAR(task.TrueZeroOneRisk({2.0, 0.0}), task.BayesRisk(), 1e-12);
  EXPECT_NEAR(task.TrueZeroOneRisk({1.0, 0.0}), task.BayesRisk(), 1e-12);  // scale-invariant
  EXPECT_GT(task.TrueZeroOneRisk({1.0, 5.0}), task.BayesRisk());
  EXPECT_EQ(task.TrueZeroOneRisk({0.0, 0.0}), 0.5);
}

TEST(GaussianMixtureTaskTest, Validation) {
  EXPECT_FALSE(GaussianMixtureTask::Create({}, 1.0).ok());
  EXPECT_FALSE(GaussianMixtureTask::Create({0.0, 0.0}, 1.0).ok());
  EXPECT_FALSE(GaussianMixtureTask::Create({1.0}, 0.0).ok());
}

}  // namespace
}  // namespace dplearn
