#include "mechanisms/laplace.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>
#include "learning/generators.h"
#include "mechanisms/sensitivity.h"

namespace dplearn {
namespace {

Dataset BitData(std::initializer_list<double> bits) {
  Dataset d;
  for (double b : bits) d.Add(Example{Vector{1.0}, b});
  return d;
}

SensitiveQuery OnesCount() {
  return CountQuery([](const Example& z) { return z.label == 1.0; });
}

TEST(LaplaceMechanismTest, CreateValidation) {
  EXPECT_TRUE(LaplaceMechanism::Create(OnesCount(), 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(OnesCount(), 0.0).ok());
  SensitiveQuery no_fn;
  no_fn.sensitivity = 1.0;
  EXPECT_FALSE(LaplaceMechanism::Create(no_fn, 1.0).ok());
  SensitiveQuery bad_sens = OnesCount();
  bad_sens.sensitivity = 0.0;
  EXPECT_FALSE(LaplaceMechanism::Create(bad_sens, 1.0).ok());
}

TEST(LaplaceMechanismTest, NoiseScaleIsSensitivityOverEpsilon) {
  auto m = LaplaceMechanism::Create(OnesCount(), 0.5);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->noise_scale(), 2.0, 1e-12);
  EXPECT_EQ(m->Guarantee().epsilon, 0.5);
  EXPECT_EQ(m->Guarantee().delta, 0.0);
  EXPECT_NEAR(m->ExpectedAbsoluteError(), 2.0, 1e-12);
}

TEST(LaplaceMechanismTest, ReleaseCentersOnTrueAnswer) {
  auto m = LaplaceMechanism::Create(OnesCount(), 1.0);
  ASSERT_TRUE(m.ok());
  Dataset d = BitData({1.0, 1.0, 1.0, 0.0});
  Rng rng(1);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += m->Release(d, &rng).value();
  EXPECT_NEAR(sum / trials, 3.0, 0.02);
}

TEST(LaplaceMechanismTest, DensityRatioBoundedByExpEpsilonOnNeighbors) {
  // The core of Theorem 2.1: density ratio between any neighbors <= e^eps.
  const double eps = 0.7;
  auto m = LaplaceMechanism::Create(OnesCount(), eps);
  ASSERT_TRUE(m.ok());
  Dataset d1 = BitData({1.0, 0.0, 1.0});
  Dataset d2 = d1.ReplaceExample(1, Example{Vector{1.0}, 1.0}).value();
  for (double out = -10.0; out <= 10.0; out += 0.25) {
    const double log_ratio =
        std::fabs(std::log(m->OutputDensity(d1, out) / m->OutputDensity(d2, out)));
    EXPECT_LE(log_ratio, eps + 1e-9) << "output " << out;
  }
}

TEST(LaplaceMechanismTest, DensityRatioTightInTheTail) {
  const double eps = 0.7;
  auto m = LaplaceMechanism::Create(OnesCount(), eps);
  ASSERT_TRUE(m.ok());
  Dataset d1 = BitData({1.0, 0.0, 1.0});   // count 2
  Dataset d2 = d1.ReplaceExample(1, Example{Vector{1.0}, 1.0}).value();  // count 3
  // Far in the tail (beyond both means) the ratio is exactly e^eps.
  const double log_ratio =
      std::fabs(std::log(m->OutputDensity(d1, 50.0) / m->OutputDensity(d2, 50.0)));
  EXPECT_NEAR(log_ratio, eps, 1e-9);
}

TEST(GaussianMechanismTest, CreateValidation) {
  EXPECT_TRUE(GaussianMechanism::Create(OnesCount(), {0.5, 1e-5}).ok());
  EXPECT_FALSE(GaussianMechanism::Create(OnesCount(), {0.5, 0.0}).ok());
  EXPECT_FALSE(GaussianMechanism::Create(OnesCount(), {1.5, 1e-5}).ok());
  EXPECT_FALSE(GaussianMechanism::Create(OnesCount(), {0.0, 1e-5}).ok());
}

TEST(GaussianMechanismTest, StddevMatchesCalibration) {
  const double eps = 0.5;
  const double delta = 1e-5;
  auto m = GaussianMechanism::Create(OnesCount(), {eps, delta});
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->noise_stddev(), std::sqrt(2.0 * std::log(1.25 / delta)) / eps, 1e-12);
}

TEST(GaussianMechanismTest, ReleaseCentersOnTrueAnswer) {
  auto m = GaussianMechanism::Create(OnesCount(), {1.0, 1e-5});
  ASSERT_TRUE(m.ok());
  Dataset d = BitData({1.0, 1.0, 0.0});
  Rng rng(2);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += m->Release(d, &rng).value();
  EXPECT_NEAR(sum / trials, 2.0, 0.06);
}

TEST(RandomizedResponseTest, CreateValidation) {
  EXPECT_TRUE(RandomizedResponse::Create(1.0).ok());
  EXPECT_FALSE(RandomizedResponse::Create(0.0).ok());
}

TEST(RandomizedResponseTest, ReportProbabilitiesSatisfyEpsilonDp) {
  const double eps = 1.2;
  auto rr = RandomizedResponse::Create(eps).value();
  const double p1 = rr.ReportOneProbability(1).value();
  const double p0 = rr.ReportOneProbability(0).value();
  EXPECT_NEAR(std::log(p1 / p0), eps, 1e-12);
  EXPECT_NEAR(std::log((1.0 - p0) / (1.0 - p1)), eps, 1e-12);
}

TEST(RandomizedResponseTest, DebiasedMeanRecoversPopulationMean) {
  const double eps = 1.0;
  auto rr = RandomizedResponse::Create(eps).value();
  Rng rng(3);
  const double true_mean = 0.35;
  std::vector<int> reports;
  const int n = 200000;
  reports.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int bit = rng.NextDouble() < true_mean ? 1 : 0;
    reports.push_back(rr.Release(bit, &rng).value());
  }
  EXPECT_NEAR(rr.DebiasedMean(reports).value(), true_mean, 0.01);
}

TEST(RandomizedResponseTest, InputValidation) {
  auto rr = RandomizedResponse::Create(1.0).value();
  Rng rng(1);
  EXPECT_FALSE(rr.Release(2, &rng).ok());
  EXPECT_FALSE(rr.ReportOneProbability(-1).ok());
  EXPECT_FALSE(rr.DebiasedMean({}).ok());
  EXPECT_FALSE(rr.DebiasedMean({0, 2}).ok());
}

}  // namespace
}  // namespace dplearn
