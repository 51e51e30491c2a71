#include "sampling/distributions.h"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>
#include "util/matrix.h"

namespace dplearn {
namespace {

constexpr int kN = 200000;

double SampleMean(const std::vector<double>& x) {
  return std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(x.size());
}

double SampleVar(const std::vector<double>& x) {
  const double m = SampleMean(x);
  double ss = 0.0;
  for (double v : x) ss += (v - m) * (v - m);
  return ss / static_cast<double>(x.size() - 1);
}

TEST(UniformTest, MomentsAndRange) {
  Rng rng(1);
  std::vector<double> xs(kN);
  for (double& x : xs) {
    x = SampleUniform(&rng, 2.0, 5.0).value();
    ASSERT_GE(x, 2.0);
    ASSERT_LT(x, 5.0);
  }
  EXPECT_NEAR(SampleMean(xs), 3.5, 0.02);
  EXPECT_NEAR(SampleVar(xs), 9.0 / 12.0, 0.02);
}

TEST(UniformTest, RejectsEmptyInterval) {
  Rng rng(1);
  EXPECT_FALSE(SampleUniform(&rng, 1.0, 1.0).ok());
  EXPECT_FALSE(SampleUniform(&rng, 2.0, 1.0).ok());
}

TEST(NormalTest, Moments) {
  Rng rng(2);
  std::vector<double> xs(kN);
  for (double& x : xs) x = SampleNormal(&rng, -1.0, 2.0).value();
  EXPECT_NEAR(SampleMean(xs), -1.0, 0.02);
  EXPECT_NEAR(SampleVar(xs), 4.0, 0.1);
}

TEST(NormalTest, RejectsBadStddev) {
  Rng rng(1);
  EXPECT_FALSE(SampleNormal(&rng, 0.0, 0.0).ok());
  EXPECT_FALSE(SampleNormal(&rng, 0.0, -1.0).ok());
}

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0, 0.0, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96, 0.0, 1.0), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96, 0.0, 1.0), 0.025, 1e-3);
}

TEST(LaplaceTest, MomentsMatchTheory) {
  Rng rng(3);
  const double scale = 1.5;
  std::vector<double> xs(kN);
  for (double& x : xs) x = SampleLaplace(&rng, 0.5, scale).value();
  EXPECT_NEAR(SampleMean(xs), 0.5, 0.02);
  EXPECT_NEAR(SampleVar(xs), 2.0 * scale * scale, 0.1);
}

TEST(LaplaceTest, PdfIntegratesAndCdfConsistent) {
  // pdf at the mean is 1/(2b).
  EXPECT_NEAR(LaplacePdf(0.0, 0.0, 2.0), 0.25, 1e-12);
  // Midpoint rule over [-60, 60]: the tails beyond hold e^{-30} of the mass.
  const double h = 1e-3;
  double mass = 0.0;
  for (double x = -60.0 + h / 2.0; x < 60.0; x += h) mass += LaplacePdf(x, 0.0, 2.0) * h;
  EXPECT_NEAR(mass, 1.0, 1e-6);
}

TEST(LaplaceTest, EmpiricalCdfMatches) {
  Rng rng(4);
  int below = 0;
  for (int i = 0; i < kN; ++i) {
    if (SampleLaplace(&rng, 0.0, 1.0).value() < 1.0) ++below;
  }
  // Laplace(0, 1) CDF at 1: 1 - e^{-1}/2.
  EXPECT_NEAR(static_cast<double>(below) / kN, 1.0 - 0.5 * std::exp(-1.0), 0.005);
}

TEST(GammaTest, MomentsForShapeAboveOne) {
  Rng rng(6);
  const double shape = 3.0;
  const double scale = 2.0;
  std::vector<double> xs(kN);
  for (double& x : xs) x = SampleGamma(&rng, shape, scale).value();
  EXPECT_NEAR(SampleMean(xs), shape * scale, 0.05);
  EXPECT_NEAR(SampleVar(xs), shape * scale * scale, 0.5);
}

TEST(GammaTest, MomentsForShapeBelowOne) {
  Rng rng(7);
  const double shape = 0.5;
  const double scale = 1.0;
  std::vector<double> xs(kN);
  for (double& x : xs) x = SampleGamma(&rng, shape, scale).value();
  EXPECT_NEAR(SampleMean(xs), shape * scale, 0.02);
}

TEST(GammaTest, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_FALSE(SampleGamma(&rng, 0.0, 1.0).ok());
  EXPECT_FALSE(SampleGamma(&rng, 1.0, 0.0).ok());
}

TEST(BernoulliTest, FrequencyMatchesP) {
  Rng rng(8);
  int ones = 0;
  for (int i = 0; i < kN; ++i) ones += SampleBernoulli(&rng, 0.3).value();
  EXPECT_NEAR(static_cast<double>(ones) / kN, 0.3, 0.005);
  EXPECT_FALSE(SampleBernoulli(&rng, -0.1).ok());
  EXPECT_FALSE(SampleBernoulli(&rng, 1.1).ok());
}

TEST(DiscreteTest, FrequenciesMatchDistribution) {
  Rng rng(9);
  std::vector<double> p = {0.1, 0.2, 0.3, 0.4};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kN; ++i) ++counts[SampleDiscrete(&rng, p).value()];
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kN, p[k], 0.01);
  }
}

TEST(DiscreteTest, RejectsNonDistribution) {
  Rng rng(1);
  EXPECT_FALSE(SampleDiscrete(&rng, {0.5, 0.6}).ok());
}

TEST(DiscreteTest, RoundingSlackNeverDrawsAZeroMassAtom) {
  // p sums to 1 - 5e-7, inside ValidateDistribution's 1e-6 tolerance, so a
  // uniform in [1 - 5e-7, 1) passes every partial sum. Find a seed whose
  // first uniform lands there (about one in two million).
  const std::vector<double> p = {1.0 - 5e-7, 0.0};
  std::uint64_t seed = 0;
  for (;; ++seed) {
    ASSERT_LT(seed, 20'000'000u) << "no seed draws into the slack";
    Rng probe(seed);
    if (probe.NextDouble() >= p[0]) break;
  }
  Rng rng(seed);
  EXPECT_EQ(SampleDiscrete(&rng, p).value(), 0u) << "seed " << seed;
  // Several trailing zero-mass atoms: still the last positive one.
  Rng again(seed);
  EXPECT_EQ(SampleDiscrete(&again, {0.0, 1.0 - 5e-7, 0.0, 0.0}).value(), 1u);
}

TEST(LogWeightsTest, GumbelMaxMatchesSoftmax) {
  Rng rng(10);
  // log weights for probs {1/6, 2/6, 3/6}.
  std::vector<double> log_w = {std::log(1.0), std::log(2.0), std::log(3.0)};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kN; ++i) ++counts[SampleFromLogWeights(&rng, log_w).value()];
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / kN, 2.0 / 6.0, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 3.0 / 6.0, 0.01);
}

TEST(LogWeightsTest, HandlesExtremeSpread) {
  Rng rng(11);
  std::vector<double> log_w = {-1e6, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SampleFromLogWeights(&rng, log_w).value(), 1u);
  }
  EXPECT_FALSE(SampleFromLogWeights(&rng, {}).ok());
}

TEST(UnitSphereTest, UnitNormAndSymmetry) {
  Rng rng(12);
  double mean_first = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto v = SampleUnitSphere(&rng, 3);
    ASSERT_TRUE(v.ok());
    EXPECT_NEAR(Norm2(*v), 1.0, 1e-12);
    mean_first += (*v)[0];
  }
  EXPECT_NEAR(mean_first / n, 0.0, 0.02);
  EXPECT_FALSE(SampleUnitSphere(&rng, 0).ok());
}

TEST(GammaNormVectorTest, NormIsGammaDistributed) {
  Rng rng(13);
  const std::size_t d = 4;
  const double rate = 2.0;
  std::vector<double> norms(50000);
  for (double& nv : norms) {
    auto v = SampleGammaNormVector(&rng, d, rate);
    ASSERT_TRUE(v.ok());
    nv = Norm2(*v);
  }
  // ||b|| ~ Gamma(d, 1/rate): mean d/rate, var d/rate^2.
  EXPECT_NEAR(SampleMean(norms), static_cast<double>(d) / rate, 0.03);
  EXPECT_NEAR(SampleVar(norms), static_cast<double>(d) / (rate * rate), 0.05);
}

}  // namespace
}  // namespace dplearn
