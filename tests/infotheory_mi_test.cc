#include "infotheory/mutual_information.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>
#include "sampling/distributions.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

TEST(JointDistributionTest, CreateValidation) {
  EXPECT_TRUE(JointDistribution::Create(2, 2, {0.25, 0.25, 0.25, 0.25}).ok());
  EXPECT_FALSE(JointDistribution::Create(2, 2, {0.5, 0.5}).ok());
  EXPECT_FALSE(JointDistribution::Create(2, 2, {0.5, 0.5, 0.5, 0.5}).ok());
  EXPECT_FALSE(JointDistribution::Create(0, 2, {}).ok());
}

TEST(JointDistributionTest, Marginals) {
  auto j = JointDistribution::Create(2, 2, {0.1, 0.2, 0.3, 0.4}).value();
  const std::vector<double> mx = j.MarginalX();
  const std::vector<double> my = j.MarginalY();
  EXPECT_NEAR(mx[0], 0.3, 1e-12);
  EXPECT_NEAR(mx[1], 0.7, 1e-12);
  EXPECT_NEAR(my[0], 0.4, 1e-12);
  EXPECT_NEAR(my[1], 0.6, 1e-12);
}

TEST(JointDistributionTest, IndependentHasZeroMi) {
  // P(x,y) = P(x)P(y) with px={0.3,0.7}, py={0.4,0.6}.
  auto j = JointDistribution::Create(2, 2, {0.12, 0.18, 0.28, 0.42}).value();
  EXPECT_NEAR(j.MutualInformation(), 0.0, 1e-12);
}

TEST(JointDistributionTest, PerfectlyCorrelatedHasEntropyMi) {
  auto j = JointDistribution::Create(2, 2, {0.5, 0.0, 0.0, 0.5}).value();
  EXPECT_NEAR(j.MutualInformation(), std::log(2.0), 1e-12);
}

TEST(JointDistributionTest, MiMatchesEntropyDecomposition) {
  // I(X;Y) = H(X) + H(Y) - H(X,Y) on an arbitrary joint.
  const std::vector<double> cells = {0.1, 0.15, 0.05, 0.2, 0.25, 0.25};
  auto j = JointDistribution::Create(2, 3, cells).value();
  auto entropy = [](const std::vector<double>& p) {
    double h = 0.0;
    for (double v : p) {
      if (v > 0.0) h -= v * std::log(v);
    }
    return h;
  };
  EXPECT_NEAR(j.MutualInformation(),
              entropy(j.MarginalX()) + entropy(j.MarginalY()) - entropy(cells), 1e-12);
}

TEST(JointDistributionTest, FromMarginalAndConditional) {
  std::vector<double> px = {0.5, 0.5};
  std::vector<std::vector<double>> w = {{0.9, 0.1}, {0.2, 0.8}};
  auto j = JointDistribution::FromMarginalAndConditional(px, w);
  ASSERT_TRUE(j.ok());
  EXPECT_NEAR(j->P(0, 0), 0.45, 1e-12);
  EXPECT_NEAR(j->P(1, 1), 0.40, 1e-12);
  // Ragged conditional rejected.
  EXPECT_FALSE(
      JointDistribution::FromMarginalAndConditional(px, {{1.0}, {0.5, 0.5}}).ok());
}

TEST(JointDistributionTest, ZeroMassRowsSkipValidation) {
  std::vector<double> px = {1.0, 0.0};
  // Second row is not a distribution but carries no mass.
  std::vector<std::vector<double>> w = {{0.5, 0.5}, {0.0, 0.0}};
  EXPECT_TRUE(JointDistribution::FromMarginalAndConditional(px, w).ok());
}

TEST(PluginMiTest, IndependentSamplesGiveNearZero) {
  Rng rng(1);
  const std::size_t n = 20000;
  std::vector<std::size_t> xs(n);
  std::vector<std::size_t> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.NextBounded(4);
    ys[i] = rng.NextBounded(4);
  }
  const double mi = PluginMiFromSamples(xs, ys).value();
  // Plug-in bias ~ (16-4-4+1)/(2n) ~= 2e-4.
  EXPECT_LT(mi, 0.003);
}

TEST(PluginMiTest, IdenticalSamplesGiveEntropy) {
  Rng rng(2);
  const std::size_t n = 50000;
  std::vector<std::size_t> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = rng.NextBounded(4);
  const double mi = PluginMiFromSamples(xs, xs).value();
  EXPECT_NEAR(mi, std::log(4.0), 0.01);
}

TEST(PluginMiTest, RejectsBadInput) {
  EXPECT_FALSE(PluginMiFromSamples({}, {}).ok());
  EXPECT_FALSE(PluginMiFromSamples({1, 2}, {1}).ok());
}

TEST(PluginMiTest, RejectsTablesOverTheCellBudget) {
  const std::size_t budget = kPluginMiMaxCells;
  // One axis alone over the budget, and the largest symbols, whose +1 wraps.
  EXPECT_EQ(PluginMiFromSamples({budget}, {0}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PluginMiFromSamples({0}, {budget}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PluginMiFromSamples({SIZE_MAX}, {SIZE_MAX}).status().code(),
            StatusCode::kInvalidArgument);
  // The product one row over the budget, and exactly at it.
  EXPECT_EQ(PluginMiFromSamples({budget / 4}, {3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(PluginMiFromSamples({budget / 4 - 1}, {3}).ok());
  EXPECT_FALSE(HistogramMi({1.0, 2.0}, {1.0, 2.0}, 2049).ok());
}

TEST(MillerMadowTest, MatchesFormula) {
  EXPECT_NEAR(MillerMadowCorrection(4, 4, 16, 1000), (16.0 - 4.0 - 4.0 + 1.0) / 2000.0,
              1e-15);
}

TEST(HistogramMiTest, CorrelatedGaussiansHavePositiveMi) {
  Rng rng(3);
  const std::size_t n = 20000;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = SampleStandardNormal(&rng);
    ys[i] = xs[i] + 0.5 * SampleStandardNormal(&rng);
  }
  // True MI for rho = 1/sqrt(1.25): -(1/2)ln(1-rho^2) = -(1/2)ln(0.2) ~ 0.805.
  const double mi = HistogramMi(xs, ys, 30).value();
  EXPECT_GT(mi, 0.5);
  EXPECT_LT(mi, 1.2);
}

TEST(HistogramMiTest, IndependentGaussiansNearZero) {
  Rng rng(4);
  const std::size_t n = 20000;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = SampleStandardNormal(&rng);
    ys[i] = SampleStandardNormal(&rng);
  }
  EXPECT_LT(HistogramMi(xs, ys, 20).value(), 0.05);
}

TEST(HistogramMiTest, RejectsBadInput) {
  EXPECT_FALSE(HistogramMi({1.0}, {1.0}, 4).ok());
  EXPECT_FALSE(HistogramMi({1.0, 2.0}, {1.0}, 4).ok());
  EXPECT_FALSE(HistogramMi({1.0, 2.0}, {1.0, 2.0}, 0).ok());
}

TEST(HistogramMiTest, RejectsNonFiniteSamples) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(HistogramMi({0.0, kNan, 1.0}, {0.0, 0.5, 1.0}, 4).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HistogramMi({0.0, 0.5, 1.0}, {0.0, -kInf, 1.0}, 4).status().code(),
            StatusCode::kInvalidArgument);
  // Finite samples whose range overflows a double.
  EXPECT_EQ(HistogramMi({-1e308, 1e308}, {0.0, 1.0}, 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KsgMiTest, BivariateGaussianMatchesClosedForm) {
  Rng rng(5);
  const std::size_t n = 2000;
  const double rho = 0.8;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = SampleStandardNormal(&rng);
    const double b = SampleStandardNormal(&rng);
    xs[i] = a;
    ys[i] = rho * a + std::sqrt(1.0 - rho * rho) * b;
  }
  const double true_mi = -0.5 * std::log(1.0 - rho * rho);  // ~0.5108
  const double est = KsgMi(xs, ys, 4).value();
  EXPECT_NEAR(est, true_mi, 0.1);
}

TEST(KsgMiTest, IndependentNearZero) {
  Rng rng(6);
  const std::size_t n = 1500;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = SampleStandardNormal(&rng);
    ys[i] = SampleStandardNormal(&rng);
  }
  EXPECT_LT(KsgMi(xs, ys, 4).value(), 0.05);
}

TEST(PluginMiTest, SparseAccumulatorMatchesDenseOnStructuralZeros) {
  // Samples whose empirical joint has structural zeros (x == y only, so the
  // off-diagonal cells never occur). The sparse sample path and the dense
  // JointDistribution path must agree: zero cells contribute exactly 0 in
  // both, and no marginal product is ever formed (it can underflow).
  std::vector<std::size_t> xs;
  std::vector<std::size_t> ys;
  for (int rep = 0; rep < 7; ++rep) xs.push_back(0);
  for (int rep = 0; rep < 3; ++rep) xs.push_back(1);
  ys = xs;  // perfectly correlated -> MI = H(X)
  auto sparse = PluginMiFromSamples(xs, ys);
  ASSERT_TRUE(sparse.ok());

  auto dense = JointDistribution::Create(2, 2, {0.7, 0.0, 0.0, 0.3});
  ASSERT_TRUE(dense.ok());
  EXPECT_NEAR(sparse.value(), dense.value().MutualInformation(), 1e-12);
  // And both equal the entropy of the marginal.
  const double h = -(0.7 * std::log(0.7) + 0.3 * std::log(0.3));
  EXPECT_NEAR(sparse.value(), h, 1e-12);
}

TEST(PluginMiTest, IndependentSamplesGiveZeroMi) {
  // A product empirical distribution: every joint cell is exactly px * py,
  // so plug-in MI is 0 up to log-arithmetic rounding, and never negative
  // (the estimator clamps).
  std::vector<std::size_t> xs;
  std::vector<std::size_t> ys;
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  auto mi = PluginMiFromSamples(xs, ys);
  ASSERT_TRUE(mi.ok());
  EXPECT_GE(mi.value(), 0.0);
  EXPECT_NEAR(mi.value(), 0.0, 1e-12);
}

TEST(KsgMiTest, RejectsBadInput) {
  EXPECT_FALSE(KsgMi({1.0, 2.0}, {1.0}, 1).ok());
  EXPECT_FALSE(KsgMi({1.0, 2.0}, {1.0, 2.0}, 0).ok());
  EXPECT_FALSE(KsgMi({1.0, 2.0}, {1.0, 2.0}, 5).ok());
}

TEST(KsgMiTest, RejectsNonFiniteSamples) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> finite = {0.0, 0.25, 0.5, 0.75, 1.0};
  EXPECT_EQ(KsgMi({0.0, 0.25, kNan, 0.75, 1.0}, finite, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(KsgMi(finite, {0.0, 0.25, 0.5, kInf, 1.0}, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(KsgMi(finite, finite, 2).ok());
}

}  // namespace
}  // namespace dplearn
