#include "infotheory/renyi.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>
#include "infotheory/entropy.h"

namespace dplearn {
namespace {

TEST(RenyiDivergenceTest, ZeroIffEqual) {
  std::vector<double> p = {0.3, 0.7};
  for (double alpha : {0.5, 2.0, 10.0}) {
    EXPECT_NEAR(RenyiDivergence(p, p, alpha).value(), 0.0, 1e-12) << alpha;
  }
}

TEST(RenyiDivergenceTest, KnownValueAtAlphaTwo) {
  // D_2(p||q) = ln sum p_i^2/q_i.
  std::vector<double> p = {0.8, 0.2};
  std::vector<double> q = {0.5, 0.5};
  const double expected = std::log(0.64 / 0.5 + 0.04 / 0.5);
  EXPECT_NEAR(RenyiDivergence(p, q, 2.0).value(), expected, 1e-12);
}

TEST(RenyiDivergenceTest, MonotoneInAlpha) {
  std::vector<double> p = {0.8, 0.2};
  std::vector<double> q = {0.4, 0.6};
  double previous = 0.0;
  for (double alpha : {0.5, 0.9, 1.5, 2.0, 5.0, 20.0}) {
    const double d = RenyiDivergence(p, q, alpha).value();
    EXPECT_GE(d, previous - 1e-12) << alpha;
    previous = d;
  }
}

TEST(RenyiDivergenceTest, ApproachesKlNearOne) {
  std::vector<double> p = {0.7, 0.3};
  std::vector<double> q = {0.4, 0.6};
  const double kl = KlDivergence(p, q).value();
  EXPECT_NEAR(RenyiDivergence(p, q, 1.0001).value(), kl, 1e-3);
  EXPECT_NEAR(RenyiDivergence(p, q, 0.9999).value(), kl, 1e-3);
}

TEST(RenyiDivergenceTest, ApproachesMaxDivergenceAtLargeAlpha) {
  std::vector<double> p = {0.8, 0.2};
  std::vector<double> q = {0.4, 0.6};
  const double max_div = std::log(0.8 / 0.4);
  EXPECT_NEAR(RenyiDivergence(p, q, 500.0).value(), max_div, 1e-2);
}

TEST(RenyiDivergenceTest, InfinityOnUnsupportedMassForAlphaAboveOne) {
  EXPECT_TRUE(std::isinf(RenyiDivergence({0.5, 0.5}, {1.0, 0.0}, 2.0).value()));
  // alpha < 1: finite unless supports are disjoint.
  EXPECT_FALSE(std::isinf(RenyiDivergence({0.5, 0.5}, {1.0, 0.0}, 0.5).value()));
  EXPECT_TRUE(std::isinf(RenyiDivergence({1.0, 0.0}, {0.0, 1.0}, 0.5).value()));
}

TEST(RenyiDivergenceTest, Validation) {
  EXPECT_FALSE(RenyiDivergence({1.0}, {0.5, 0.5}, 2.0).ok());
  EXPECT_FALSE(RenyiDivergence({0.5, 0.5}, {0.5, 0.5}, 1.0).ok());
  EXPECT_FALSE(RenyiDivergence({0.5, 0.5}, {0.5, 0.5}, 0.0).ok());
}

TEST(GaussianRdpTest, CurveAndValidation) {
  auto rdp = GaussianMechanismRdp(2.0, 1.0, 4.0);
  ASSERT_TRUE(rdp.ok());
  EXPECT_NEAR(rdp->epsilon, 4.0 / 8.0, 1e-12);
  EXPECT_EQ(rdp->alpha, 4.0);
  EXPECT_FALSE(GaussianMechanismRdp(0.0, 1.0, 2.0).ok());
  EXPECT_FALSE(GaussianMechanismRdp(1.0, 0.0, 2.0).ok());
  EXPECT_FALSE(GaussianMechanismRdp(1.0, 1.0, 1.0).ok());
}

TEST(GaussianRdpTest, MatchesDirectRenyiDivergenceOfDiscretizedGaussians) {
  // Discretize N(0, sigma) vs N(delta, sigma) finely and compare D_alpha.
  const double sigma = 1.0;
  const double delta = 0.5;
  const double alpha = 3.0;
  const double width = 0.01;
  std::vector<double> p;
  std::vector<double> q;
  double sp = 0.0;
  double sq = 0.0;
  for (double x = -10.0; x <= 10.0; x += width) {
    p.push_back(std::exp(-0.5 * x * x / (sigma * sigma)));
    const double y = x - delta;
    q.push_back(std::exp(-0.5 * y * y / (sigma * sigma)));
    sp += p.back();
    sq += q.back();
  }
  for (auto& v : p) v /= sp;
  for (auto& v : q) v /= sq;
  const double direct = RenyiDivergence(p, q, alpha).value();
  const double closed = GaussianMechanismRdp(sigma, delta, alpha).value().epsilon;
  EXPECT_NEAR(direct, closed, 1e-3);
}

TEST(LaplaceRdpTest, ConvergesToPureDpAtLargeAlpha) {
  // alpha -> infinity: RDP epsilon -> Delta/b (the pure-DP epsilon).
  const double scale = 2.0;
  const double sensitivity = 1.0;
  auto rdp = LaplaceMechanismRdp(scale, sensitivity, 500.0);
  ASSERT_TRUE(rdp.ok());
  EXPECT_NEAR(rdp->epsilon, sensitivity / scale, 1e-2);
  // And is increasing in alpha.
  EXPECT_LE(LaplaceMechanismRdp(scale, sensitivity, 2.0).value().epsilon,
            LaplaceMechanismRdp(scale, sensitivity, 10.0).value().epsilon + 1e-12);
}

TEST(ComposeRdpTest, Additive) {
  RdpBudget per{3.0, 0.2};
  auto total = ComposeRdp(per, 25);
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(total->epsilon, 5.0, 1e-12);
  EXPECT_EQ(total->alpha, 3.0);
  EXPECT_FALSE(ComposeRdp(per, 0).ok());
  EXPECT_FALSE(ComposeRdp({0.5, 0.1}, 2).ok());
}

TEST(RdpConversionTest, FormulaAndOptimization) {
  RdpBudget rdp{10.0, 1.0};
  const double delta = 1e-5;
  EXPECT_NEAR(RdpToApproximateDpEpsilon(rdp, delta).value(),
              1.0 + std::log(1e5) / 9.0, 1e-9);
  // Optimizing over a curve picks the best order.
  std::vector<RdpBudget> curve;
  for (double alpha : {1.5, 2.0, 4.0, 8.0, 16.0, 64.0}) {
    curve.push_back(GaussianMechanismRdp(3.0, 1.0, alpha).value());
  }
  const double best = BestEpsilonFromRdpCurve(curve, delta).value();
  for (const auto& point : curve) {
    EXPECT_LE(best, RdpToApproximateDpEpsilon(point, delta).value() + 1e-12);
  }
  EXPECT_FALSE(BestEpsilonFromRdpCurve({}, delta).ok());
}

TEST(RdpConversionTest, RdpCompositionBeatsBasicForGaussian) {
  // k Gaussian releases: RDP-accounted epsilon grows like sqrt(k) while a
  // per-release (eps, delta) + basic composition grows like k.
  const double sigma = 4.0;
  const std::size_t k = 64;
  const double delta = 1e-5;
  std::vector<RdpBudget> curve;
  for (double alpha : {2.0, 4.0, 8.0, 16.0, 32.0, 128.0}) {
    curve.push_back(ComposeRdp(GaussianMechanismRdp(sigma, 1.0, alpha).value(), k).value());
  }
  const double rdp_eps = BestEpsilonFromRdpCurve(curve, delta).value();
  // Basic: per-release eps from the classical calibration, times k.
  const double per_eps = std::sqrt(2.0 * std::log(1.25 / delta)) / sigma;
  const double basic_eps = per_eps * static_cast<double>(k);
  EXPECT_LT(rdp_eps, 0.5 * basic_eps);
}

// Regression (clamp-policy harmonization): non-negativity clamping across
// the information measures used an ad-hoc mix of max(0, x) and nothing at
// all. The library-wide policy (math_util.h ClampRoundingNegative) flattens
// only rounding-scale negatives to exactly 0 and lets genuine sign bugs
// through. These pin the corners where the old code differed.
TEST(ClampPolicyRegressionTest, DiagonalDivergenceClampsToZero) {
  // Weights whose alpha-powers round unfavourably: D(p||p) must come back
  // >= 0 (and 0 up to rounding) for every alpha regime.
  std::vector<double> p = {0.012806719627415414, 0.15195352313381683,
                           0.016150321686470744, 0.81908943555229706};
  double total = 0.0;
  for (double v : p) total += v;
  for (double& v : p) v /= total;
  for (double alpha : {0.25, 0.75, 1.5, 2.2245248513485709, 3.5}) {
    const auto d = RenyiDivergence(p, p, alpha);
    ASSERT_TRUE(d.ok()) << alpha;
    EXPECT_GE(d.value(), 0.0) << "alpha=" << alpha;
    EXPECT_LE(d.value(), 1e-12) << "alpha=" << alpha;
  }
}

TEST(ClampPolicyRegressionTest, ExtremeOrderDivergenceOfHeavyTailsIsFinite) {
  // Geometric-mechanism tails at order alpha = 64: pow(p, 64) underflows to
  // 0 while pow(q, -63) overflows to inf, so the term-wise product was NaN —
  // which the old max(0, NaN) clamp silently flattened to 0. The log-space
  // accumulation keeps every term representable; the bounded likelihood
  // ratio (|log p/q| <= eps here) caps the true divergence at eps.
  const double eps = 0.5;
  const double ratio = std::exp(eps);
  std::vector<double> p;
  std::vector<double> q;
  for (int z = -80; z <= 80; ++z) {
    p.push_back(std::exp(-eps * std::abs(z)));
    q.push_back(std::exp(-eps * std::abs(z - 1)));
  }
  double sp = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) sp += p[i], sq += q[i];
  for (std::size_t i = 0; i < p.size(); ++i) p[i] /= sp, q[i] /= sq;
  for (double alpha : {8.0, 64.0, 256.0}) {
    const auto d = RenyiDivergence(p, q, alpha);
    ASSERT_TRUE(d.ok()) << alpha;
    EXPECT_TRUE(std::isfinite(d.value())) << "alpha=" << alpha;
    EXPECT_GE(d.value(), 0.0) << "alpha=" << alpha;
    EXPECT_LE(d.value(), std::log(ratio) + 1e-6) << "alpha=" << alpha;
    EXPECT_GT(d.value(), 0.01) << "alpha=" << alpha;  // not flattened to 0
  }
}

TEST(ClampPolicyRegressionTest, LaplaceRdpEpsilonNeverNegative) {
  // Tiny sensitivity/scale ratios land the LogAddExp form a few ulps below
  // zero before the clamp.
  for (double t : {1e-12, 1e-9, 1e-6}) {
    for (double alpha : {1.0000001, 1.5, 2.0, 64.0}) {
      const auto budget = LaplaceMechanismRdp(1.0, t, alpha);
      ASSERT_TRUE(budget.ok());
      EXPECT_GE(budget.value().epsilon, 0.0) << "t=" << t << " alpha=" << alpha;
    }
  }
}

}  // namespace
}  // namespace dplearn
