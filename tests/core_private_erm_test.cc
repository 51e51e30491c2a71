#include "core/private_erm.h"

#include <cmath>

#include <gtest/gtest.h>
#include "learning/generators.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

class PrivateErmTest : public ::testing::Test {
 protected:
  PrivateErmTest() : loss_(50.0), task_(GaussianMixtureTask::Create({0.4, 0.2}, 0.5).value()) {
    Rng rng(7);
    // Features are scaled into the unit ball (||x|| <= 1 w.h.p. given the
    // mixture parameters) as the CMS analysis assumes.
    data_ = task_.Sample(400, &rng).value();
    options_.epsilon = 2.0;
    options_.l2_lambda = 0.05;
    options_.lipschitz = 1.0;
    options_.smoothness = 0.25;
    options_.solver.learning_rate = 0.5;
    options_.solver.max_iters = 5000;
  }

  LogisticLoss loss_;
  GaussianMixtureTask task_;
  Dataset data_;
  PrivateErmOptions options_;
};

TEST_F(PrivateErmTest, OutputPerturbationRuns) {
  Rng rng(1);
  auto result = OutputPerturbationErm(loss_, data_, options_, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->theta.size(), 2u);
  EXPECT_EQ(result->epsilon_spent, options_.epsilon);
  EXPECT_TRUE(result->solver_result.converged);
}

TEST_F(PrivateErmTest, ObjectivePerturbationRuns) {
  Rng rng(2);
  auto result = ObjectivePerturbationErm(loss_, data_, options_, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->theta.size(), 2u);
  EXPECT_EQ(result->epsilon_spent, options_.epsilon);
}

TEST_F(PrivateErmTest, NoiseDecreasesWithEpsilon) {
  // Average distance from the non-private solution shrinks as eps grows.
  GradientErmOptions solver = options_.solver;
  solver.l2_lambda = options_.l2_lambda;
  auto non_private = GradientDescentErm(loss_, data_, solver, Vector(2, 0.0)).value();

  auto mean_distance = [&](double eps) {
    PrivateErmOptions opts = options_;
    opts.epsilon = eps;
    Rng rng(3);
    double total = 0.0;
    const int trials = 60;
    for (int i = 0; i < trials; ++i) {
      auto r = OutputPerturbationErm(loss_, data_, opts, &rng).value();
      total += Norm2(Sub(r.theta, non_private.theta));
    }
    return total / trials;
  };
  const double low_eps_noise = mean_distance(0.2);
  const double high_eps_noise = mean_distance(5.0);
  EXPECT_GT(low_eps_noise, 4.0 * high_eps_noise);
}

TEST_F(PrivateErmTest, OutputPerturbationNoiseMatchesCalibration) {
  // E||noise|| = d * beta / eps with beta = 2L/(n lambda).
  PrivateErmOptions opts = options_;
  GradientErmOptions solver = opts.solver;
  solver.l2_lambda = opts.l2_lambda;
  auto non_private = GradientDescentErm(loss_, data_, solver, Vector(2, 0.0)).value();
  const double beta =
      2.0 * opts.lipschitz / (static_cast<double>(data_.size()) * opts.l2_lambda);
  const double expected_norm = 2.0 * beta / opts.epsilon;  // d = 2
  // The solve is deterministic and draws nothing, so solving once and
  // releasing 4000 times gives the same draws as 4000 OutputPerturbationErm
  // calls (private_erm.h); OutputPerturbationRuns keeps the end-to-end call.
  auto solved = SolveNonPrivateErm(loss_, data_, opts).value();
  Rng rng(4);
  double total = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    auto r = ReleaseOutputPerturbation(solved, data_.size(), data_.FeatureDim(), opts, &rng)
                 .value();
    total += Norm2(Sub(r.theta, non_private.theta));
  }
  EXPECT_NEAR(total / trials, expected_norm, 0.1 * expected_norm);
}

TEST_F(PrivateErmTest, ObjectivePerturbationBeatsOutputPerturbationOnRisk) {
  // The standard CMS'11 finding; checked in expectation over repeats at a
  // strict budget where the difference is large.
  PrivateErmOptions opts = options_;
  opts.epsilon = 0.5;
  ZeroOneLoss zo;
  Rng rng(5);
  double output_risk = 0.0;
  double objective_risk = 0.0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    auto out = OutputPerturbationErm(loss_, data_, opts, &rng).value();
    auto obj = ObjectivePerturbationErm(loss_, data_, opts, &rng).value();
    output_risk += task_.TrueZeroOneRisk(out.theta);
    objective_risk += task_.TrueZeroOneRisk(obj.theta);
  }
  EXPECT_LT(objective_risk / trials, output_risk / trials + 0.02);
}

TEST_F(PrivateErmTest, EpsPrimeAdjustmentPathRuns) {
  // Tiny epsilon forces the lambda-adjustment branch of CMS Algorithm 2.
  PrivateErmOptions opts = options_;
  opts.epsilon = 0.01;
  opts.l2_lambda = 1e-4;
  Rng rng(6);
  auto result = ObjectivePerturbationErm(loss_, data_, opts, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->epsilon_spent, 0.01);
}

TEST_F(PrivateErmTest, Validation) {
  Rng rng(1);
  PrivateErmOptions bad = options_;
  bad.epsilon = 0.0;
  EXPECT_FALSE(OutputPerturbationErm(loss_, data_, bad, &rng).ok());
  bad = options_;
  bad.l2_lambda = 0.0;
  EXPECT_FALSE(OutputPerturbationErm(loss_, data_, bad, &rng).ok());
  bad = options_;
  bad.lipschitz = 0.0;
  EXPECT_FALSE(ObjectivePerturbationErm(loss_, data_, bad, &rng).ok());
  bad = options_;
  bad.smoothness = 0.0;
  EXPECT_FALSE(ObjectivePerturbationErm(loss_, data_, bad, &rng).ok());
  EXPECT_FALSE(OutputPerturbationErm(loss_, Dataset(), options_, &rng).ok());
  ZeroOneLoss no_grad;
  EXPECT_FALSE(OutputPerturbationErm(no_grad, data_, options_, &rng).ok());
}

}  // namespace
}  // namespace dplearn
