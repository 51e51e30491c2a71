#include "core/gibbs_estimator.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>
#include "learning/generators.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

Dataset BitData(std::size_t zeros, std::size_t ones) {
  Dataset d;
  for (std::size_t i = 0; i < zeros; ++i) d.Add(Example{Vector{1.0}, 0.0});
  for (std::size_t i = 0; i < ones; ++i) d.Add(Example{Vector{1.0}, 1.0});
  return d;
}

class GibbsEstimatorTest : public ::testing::Test {
 protected:
  GibbsEstimatorTest()
      : loss_(1.0),
        hclass_(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value()) {}

  ClippedSquaredLoss loss_;
  FiniteHypothesisClass hclass_;
};

TEST_F(GibbsEstimatorTest, CreateValidation) {
  EXPECT_TRUE(GibbsEstimator::CreateUniform(&loss_, hclass_, 5.0).ok());
  EXPECT_TRUE(GibbsEstimator::CreateUniform(&loss_, hclass_, 0.0).ok());
  EXPECT_FALSE(GibbsEstimator::CreateUniform(&loss_, hclass_, -1.0).ok());
  EXPECT_FALSE(GibbsEstimator::CreateUniform(nullptr, hclass_, 1.0).ok());
  EXPECT_FALSE(GibbsEstimator::Create(&loss_, hclass_, {0.5, 0.5}, 1.0).ok());
}

TEST_F(GibbsEstimatorTest, PosteriorMatchesClosedForm) {
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 7.0).value();
  Dataset d = BitData(3, 7);
  auto posterior = gibbs.Posterior(d);
  ASSERT_TRUE(posterior.ok());
  // Manual computation: p_i prop. to exp(-lambda * R_i).
  auto risks = EmpiricalRiskProfile(loss_, hclass_.thetas(), d).value();
  double z = 0.0;
  for (double r : risks) z += std::exp(-7.0 * r);
  for (std::size_t i = 0; i < risks.size(); ++i) {
    EXPECT_NEAR((*posterior)[i], std::exp(-7.0 * risks[i]) / z, 1e-12);
  }
}

TEST_F(GibbsEstimatorTest, LambdaZeroReturnsPrior) {
  std::vector<double> prior(hclass_.size(), 0.0);
  prior[0] = 0.5;
  prior[5] = 0.5;
  auto gibbs = GibbsEstimator::Create(&loss_, hclass_, prior, 0.0).value();
  auto posterior = gibbs.Posterior(BitData(2, 2)).value();
  for (std::size_t i = 0; i < prior.size(); ++i) {
    EXPECT_NEAR(posterior[i], prior[i], 1e-12);
  }
}

TEST_F(GibbsEstimatorTest, LargeLambdaConcentratesOnErm) {
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 1e5).value();
  Dataset d = BitData(4, 6);  // empirical mean 0.6, on the grid
  auto posterior = gibbs.Posterior(d).value();
  // theta = 0.6 is index 6 of the 11-point grid on [0,1].
  EXPECT_GT(posterior[6], 0.999);
}

TEST_F(GibbsEstimatorTest, PosteriorConcentratesMoreWithLargerLambda) {
  Dataset d = BitData(5, 5);
  auto weak = GibbsEstimator::CreateUniform(&loss_, hclass_, 1.0).value();
  auto strong = GibbsEstimator::CreateUniform(&loss_, hclass_, 50.0).value();
  // Expected empirical risk decreases as lambda grows (tighter fit).
  EXPECT_GT(weak.ExpectedEmpiricalRisk(d).value(),
            strong.ExpectedEmpiricalRisk(d).value());
  // KL to prior increases as lambda grows (more informative posterior).
  EXPECT_LT(weak.KlToPrior(d).value(), strong.KlToPrior(d).value());
}

TEST_F(GibbsEstimatorTest, SampleFrequenciesMatchPosterior) {
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 10.0).value();
  Dataset d = BitData(2, 8);
  auto posterior = gibbs.Posterior(d).value();
  Rng rng(1);
  std::vector<int> counts(hclass_.size(), 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++counts[gibbs.Sample(d, &rng).value()];
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, posterior[i], 0.006);
  }
}

TEST_F(GibbsEstimatorTest, SampleThetaReturnsGridPoint) {
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 10.0).value();
  Rng rng(2);
  auto theta = gibbs.SampleTheta(BitData(5, 5), &rng);
  ASSERT_TRUE(theta.ok());
  EXPECT_GE((*theta)[0], 0.0);
  EXPECT_LE((*theta)[0], 1.0);
}

TEST_F(GibbsEstimatorTest, PrivacyGuaranteeFormula) {
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 4.0).value();
  // Theorem 4.1: 2 * lambda * sensitivity.
  EXPECT_NEAR(gibbs.PrivacyGuaranteeEpsilon(0.1).value(), 0.8, 1e-12);
  EXPECT_FALSE(gibbs.PrivacyGuaranteeEpsilon(0.0).ok());
}

TEST_F(GibbsEstimatorTest, EquivalenceWithExponentialMechanism) {
  // The paper's central identification: Gibbs posterior == exponential
  // mechanism with q = -R̂, pointwise, on every dataset tested.
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 6.0).value();
  auto mechanism = gibbs.AsExponentialMechanism(0.1).value();
  for (std::size_t ones = 0; ones <= 6; ++ones) {
    Dataset d = BitData(6 - ones, ones);
    auto p_gibbs = gibbs.Posterior(d).value();
    auto p_exp = mechanism.OutputDistribution(d).value();
    ASSERT_EQ(p_gibbs.size(), p_exp.size());
    for (std::size_t i = 0; i < p_gibbs.size(); ++i) {
      EXPECT_NEAR(p_gibbs[i], p_exp[i], 1e-12) << "ones=" << ones << " i=" << i;
    }
  }
  // And the privacy accounting agrees: 2*lambda*delta == mechanism guarantee.
  EXPECT_NEAR(mechanism.PrivacyGuaranteeEpsilon(),
              gibbs.PrivacyGuaranteeEpsilon(0.1).value(), 1e-12);
}

TEST_F(GibbsEstimatorTest, RejectsEmptyDataset) {
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 1.0).value();
  EXPECT_FALSE(gibbs.Posterior(Dataset()).ok());
  Rng rng(1);
  EXPECT_FALSE(gibbs.Sample(Dataset(), &rng).ok());
}

TEST_F(GibbsEstimatorTest, GridWithoutTheDataDimensionIsInvalidArgument) {
  // A 1-D grid on two-feature data, as dplearn_cli's gibbs and audit build
  // for a two-column CSV: the risk profile reports it instead of aborting.
  auto gibbs = GibbsEstimator::CreateUniform(&loss_, hclass_, 1.0).value();
  const Dataset two_features({Example{Vector{1.0, 0.5}, 1.0}, Example{Vector{0.5, 1.0}, 0.0}});
  EXPECT_EQ(gibbs.Posterior(two_features).status().code(), StatusCode::kInvalidArgument);
  Rng rng(1);
  EXPECT_EQ(gibbs.Sample(two_features, &rng).status().code(), StatusCode::kInvalidArgument);
}

TEST(GibbsPosteriorFromRisksTest, Validation) {
  EXPECT_FALSE(GibbsPosteriorFromRisks({}, {}, 1.0).ok());
  EXPECT_FALSE(GibbsPosteriorFromRisks({0.1}, {0.5, 0.5}, 1.0).ok());
  EXPECT_FALSE(GibbsPosteriorFromRisks({0.1, 0.2}, {0.5, 0.5}, -1.0).ok());
  EXPECT_FALSE(GibbsPosteriorFromRisks({0.1, 0.2}, {0.6, 0.6}, 1.0).ok());
}

TEST(GibbsPosteriorFromRisksTest, ZeroPriorMassStaysZero) {
  auto p = GibbsPosteriorFromRisks({0.0, 0.5}, {0.0, 1.0}, 3.0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)[0], 0.0);
  EXPECT_NEAR((*p)[1], 1.0, 1e-12);
}

TEST(SampleGibbsContinuousTest, ConcentratesNearEmpiricalMean) {
  // Continuous Theta = [0,1] with uniform prior; posterior for squared loss
  // is a (truncated) Gaussian centered at the empirical mean with
  // variance 1/(2 lambda).
  ClippedSquaredLoss loss(1.0);
  Dataset d;
  for (int i = 0; i < 6; ++i) d.Add(Example{Vector{1.0}, 1.0});
  for (int i = 0; i < 4; ++i) d.Add(Example{Vector{1.0}, 0.0});
  LogDensityFn log_prior = [](const Vector& t) {
    if (t[0] < 0.0 || t[0] > 1.0) return -std::numeric_limits<double>::infinity();
    return 0.0;
  };
  MetropolisOptions options;
  options.proposal_stddev = 0.15;
  options.burn_in = 3000;
  options.thinning = 5;
  Rng rng(3);
  const double lambda = 60.0;
  auto result =
      SampleGibbsContinuous(loss, d, log_prior, lambda, {0.5}, 20000, options, &rng);
  ASSERT_TRUE(result.ok());
  double mean = 0.0;
  for (const auto& s : result->samples) mean += s[0];
  mean /= static_cast<double>(result->samples.size());
  EXPECT_NEAR(mean, 0.6, 0.03);
  double var = 0.0;
  for (const auto& s : result->samples) var += (s[0] - mean) * (s[0] - mean);
  var /= static_cast<double>(result->samples.size() - 1);
  EXPECT_NEAR(var, 1.0 / (2.0 * lambda), 0.004);
}

TEST(SampleGibbsContinuousTest, Validation) {
  ClippedSquaredLoss loss(1.0);
  Dataset d({Example{Vector{1.0}, 1.0}});
  LogDensityFn log_prior = [](const Vector&) { return 0.0; };
  MetropolisOptions options;
  Rng rng(1);
  EXPECT_FALSE(
      SampleGibbsContinuous(loss, Dataset(), log_prior, 1.0, {0.5}, 10, options, &rng).ok());
  EXPECT_FALSE(
      SampleGibbsContinuous(loss, d, nullptr, 1.0, {0.5}, 10, options, &rng).ok());
  EXPECT_FALSE(
      SampleGibbsContinuous(loss, d, log_prior, -1.0, {0.5}, 10, options, &rng).ok());
}

TEST(SampleGibbsContinuousTest, DataTheRiskRejectsFailsBeforeAnyDraw) {
  // The chain's target cannot return a Status, so the data is checked at
  // the initial θ first: a NaN feature is OutOfRange, a θ without the
  // data's dimension InvalidArgument, and neither moves the RNG.
  ClippedSquaredLoss loss(1.0);
  const Dataset nan_feature(
      {Example{Vector{1.0}, 1.0}, Example{Vector{std::numeric_limits<double>::quiet_NaN()}, 0.0}});
  const Dataset d({Example{Vector{1.0}, 1.0}});
  LogDensityFn log_prior = [](const Vector&) { return 0.0; };
  MetropolisOptions options;
  Rng rng(1);
  EXPECT_EQ(SampleGibbsContinuous(loss, nan_feature, log_prior, 1.0, {0.5}, 10, options, &rng)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(SampleGibbsContinuous(loss, d, log_prior, 1.0, {0.5, 0.5}, 10, options, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Rng untouched(1);
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
}

}  // namespace
}  // namespace dplearn
