#include "learning/erm.h"

#include <cmath>

#include <gtest/gtest.h>
#include "learning/generators.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

TEST(GradientErmTest, LogisticRegressionSeparatesData) {
  LogisticLoss loss(50.0);
  Dataset d;
  // Perfectly separated 1-D data: x>0 -> +1, x<0 -> -1.
  for (double x : {0.5, 1.0, 1.5}) d.Add(Example{Vector{x}, 1.0});
  for (double x : {-0.5, -1.0, -1.5}) d.Add(Example{Vector{x}, -1.0});
  GradientErmOptions options;
  options.l2_lambda = 0.1;
  options.learning_rate = 0.5;
  options.max_iters = 5000;
  auto result = GradientDescentErm(loss, d, options, {0.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_GT(result->theta[0], 0.5);  // positive weight separates correctly
  ZeroOneLoss zo;
  EXPECT_EQ(EmpiricalRisk(zo, result->theta, d).value(), 0.0);
}

TEST(GradientErmTest, StationaryPointOfRegularizedObjective) {
  LogisticLoss loss(50.0);
  Rng rng(3);
  auto task = GaussianMixtureTask::Create({1.5, -0.5}, 1.0).value();
  Dataset d = task.Sample(200, &rng).value();
  GradientErmOptions options;
  options.l2_lambda = 0.05;
  options.learning_rate = 0.3;
  options.max_iters = 20000;
  options.gradient_tolerance = 1e-10;
  auto result = GradientDescentErm(loss, d, options, {0.0, 0.0});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->converged);
  // Verify stationarity: full gradient of the regularized objective ~ 0.
  Vector grad(2, 0.0);
  for (const Example& z : d.examples()) {
    AxpyInPlace(&grad, 1.0 / static_cast<double>(d.size()), loss.Gradient(result->theta, z));
  }
  AxpyInPlace(&grad, options.l2_lambda, result->theta);
  EXPECT_LT(NormInf(grad), 1e-8);
}

TEST(GradientErmTest, LinearPerturbationShiftsSolution) {
  LogisticLoss loss(50.0);
  Dataset d;
  for (double x : {0.5, 1.0}) d.Add(Example{Vector{x}, 1.0});
  for (double x : {-0.5, -1.0}) d.Add(Example{Vector{x}, -1.0});
  GradientErmOptions base;
  base.l2_lambda = 0.5;
  base.learning_rate = 0.5;
  base.max_iters = 10000;
  auto unperturbed = GradientDescentErm(loss, d, base, {0.0});
  GradientErmOptions perturbed = base;
  perturbed.linear_perturbation = {2.0};  // pushes theta negative
  auto shifted = GradientDescentErm(loss, d, perturbed, {0.0});
  ASSERT_TRUE(unperturbed.ok());
  ASSERT_TRUE(shifted.ok());
  EXPECT_LT(shifted->theta[0], unperturbed->theta[0]);
}

TEST(GradientErmTest, Validation) {
  LogisticLoss loss(50.0);
  ZeroOneLoss no_grad;
  Dataset d({Example{Vector{1.0}, 1.0}});
  GradientErmOptions options;
  EXPECT_FALSE(GradientDescentErm(loss, Dataset(), options, {0.0}).ok());
  EXPECT_FALSE(GradientDescentErm(no_grad, d, options, {0.0}).ok());
  EXPECT_FALSE(GradientDescentErm(loss, d, options, {0.0, 0.0}).ok());
  GradientErmOptions bad_lr;
  bad_lr.learning_rate = 0.0;
  EXPECT_FALSE(GradientDescentErm(loss, d, bad_lr, {0.0}).ok());
  GradientErmOptions bad_pert;
  bad_pert.linear_perturbation = {1.0, 2.0};
  EXPECT_FALSE(GradientDescentErm(loss, d, bad_pert, {0.0}).ok());
}

}  // namespace
}  // namespace dplearn
