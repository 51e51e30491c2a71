/// Parameterized property sweeps over the paper's invariants:
///  * Theorem 4.1 privacy holds for every (lambda, n) in a grid;
///  * I(Z;theta) is monotone in lambda and bounded by min(capacity, H(Z));
///  * Lemma 3.2 optimality holds for random risk profiles and priors;
///  * Catoni bound dominates the linearized bound everywhere;
///  * mechanism guarantees are never violated across epsilon grids.

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "core/dp_verifier.h"
#include "core/gibbs_estimator.h"
#include "core/learning_channel.h"
#include "core/pac_bayes.h"
#include "infotheory/entropy.h"
#include "learning/generators.h"
#include "learning/risk.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "sampling/rng.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

// ---------------------------------------------------------------------------
// Property: the Gibbs estimator satisfies Theorem 4.1 for all (lambda, n).

class GibbsPrivacyProperty
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(GibbsPrivacyProperty, MeasuredEpsilonWithinGuarantee) {
  const double lambda = std::get<0>(GetParam());
  const std::size_t n = std::get<1>(GetParam());
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 7).value();
  auto task = BernoulliMeanTask::Create(0.5).value();
  auto channel = BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(),
                                            lambda)
                     .value();
  const double guarantee =
      2.0 * lambda * EmpiricalRiskSensitivityBound(loss, n).value();
  EXPECT_LE(ChannelPrivacyLevel(channel), guarantee + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    LambdaBySampleSize, GibbsPrivacyProperty,
    ::testing::Combine(::testing::Values(0.25, 1.0, 4.0, 16.0, 64.0),
                       ::testing::Values(std::size_t{2}, std::size_t{5}, std::size_t{10},
                                         std::size_t{25})));

// ---------------------------------------------------------------------------
// Property: channel MI is monotone in lambda and respects universal bounds.

class ChannelMiProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChannelMiProperty, MonotoneAndBounded) {
  const std::size_t n = GetParam();
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 7).value();
  auto task = BernoulliMeanTask::Create(0.4).value();
  const double input_entropy = Entropy(
      BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), 1.0)
          .value()
          .input_marginal)
                                   .value();
  double previous = -1e-9;
  for (double lambda : {0.0, 0.5, 2.0, 8.0, 32.0}) {
    auto channel = BuildBernoulliGibbsChannel(task, n, loss, hclass,
                                              hclass.UniformPrior(), lambda)
                       .value();
    const double mi = ChannelMutualInformation(channel).value();
    EXPECT_GE(mi, previous - 1e-9) << "lambda=" << lambda;
    // I(Z;theta) <= H(Z) (data-processing side) and <= log |Theta|.
    EXPECT_LE(mi, input_entropy + 1e-9);
    EXPECT_LE(mi, std::log(static_cast<double>(hclass.size())) + 1e-9);
    previous = mi;
  }
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, ChannelMiProperty,
                         ::testing::Values(std::size_t{3}, std::size_t{6}, std::size_t{12},
                                           std::size_t{24}));

// ---------------------------------------------------------------------------
// Property: Lemma 3.2 optimality on random risk profiles / priors.

class GibbsOptimalityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GibbsOptimalityProperty, GibbsMinimizesObjectiveOnRandomInstances) {
  Rng rng(GetParam());
  const std::size_t m = 2 + rng.NextBounded(12);
  std::vector<double> risks(m);
  std::vector<double> prior_weights(m);
  for (std::size_t i = 0; i < m; ++i) {
    risks[i] = rng.NextDouble();
    prior_weights[i] = 0.05 + rng.NextDouble();
  }
  auto prior = Normalize(prior_weights).value();
  const double lambda = 0.1 + 30.0 * rng.NextDouble();

  auto gibbs = GibbsPosteriorFromRisks(risks, prior, lambda).value();
  const double at_gibbs = PacBayesObjective(gibbs, risks, prior, lambda).value();
  const double closed_form = PacBayesObjectiveMinimum(risks, prior, lambda).value();
  EXPECT_NEAR(at_gibbs, closed_form, 1e-9);

  // 20 random competitor posteriors all score >= the Gibbs value.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w(m);
    for (double& v : w) v = 0.01 + rng.NextDouble();
    auto competitor = Normalize(w).value();
    EXPECT_GE(PacBayesObjective(competitor, risks, prior, lambda).value(),
              at_gibbs - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GibbsOptimalityProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Property: exact Catoni bound never exceeds its linearization
// (E_ρ[R̂] + (KL + ln(1/δ))/λ) / C(λ, n), which follows from 1 - e^{-x} <= x,
// and decreases in n.

class CatoniBoundProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CatoniBoundProperty, ExactBelowLinearizedAndMonotoneInN) {
  const double risk = std::get<0>(GetParam());
  const double kl = std::get<1>(GetParam());
  const double delta = 0.05;
  double previous_exact = 2.0;
  for (std::size_t n : {50u, 200u, 800u, 3200u}) {
    const double lambda = SuggestLambda(n, kl + std::log(1.0 / delta));
    const double exact = CatoniHighProbabilityBound(risk, kl, lambda, n, delta).value();
    // C(λ, n) = (n/λ)(1 − e^{−λ/n}), computed with expm1 for small λ/n.
    const double gamma = lambda / static_cast<double>(n);
    const double contraction = -std::expm1(-gamma) / gamma;
    const double linear = (risk + (kl + std::log(1.0 / delta)) / lambda) / contraction;
    EXPECT_LE(exact, linear + 1e-12);
    EXPECT_LE(exact, previous_exact + 1e-12);
    previous_exact = exact;
  }
}

INSTANTIATE_TEST_SUITE_P(RiskByKl, CatoniBoundProperty,
                         ::testing::Combine(::testing::Values(0.05, 0.2, 0.5),
                                            ::testing::Values(0.1, 1.0, 3.0)));

// ---------------------------------------------------------------------------
// Property: the Laplace mechanism meets its guarantee for every epsilon.

class LaplaceDpProperty : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceDpProperty, DensityRatioBounded) {
  const double eps = GetParam();
  auto query = BoundedMeanQuery(0.0, 1.0, 4).value();
  auto mechanism = LaplaceMechanism::Create(query, eps).value();
  Dataset base;
  for (double b : {0.0, 1.0, 1.0, 0.0}) base.Add(Example{Vector{1.0}, b});
  ScalarDensityFn density = [&mechanism](const Dataset& d, double out) {
    return mechanism.OutputDensity(d, out);
  };
  std::vector<double> probes;
  for (double x = -4.0; x <= 5.0; x += 0.1) probes.push_back(x);
  auto audit = AuditScalarDensityMechanism(density, {base}, BernoulliMeanTask::Domain(),
                                           probes)
                   .value();
  EXPECT_FALSE(audit.unbounded);
  EXPECT_LE(audit.max_log_ratio, eps + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LaplaceDpProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 8.0));

// ---------------------------------------------------------------------------
// Property: randomized response is exactly eps-DP as a channel.

class RandomizedResponseProperty : public ::testing::TestWithParam<double> {};

TEST_P(RandomizedResponseProperty, ChannelMaxLogRatioEqualsEpsilon) {
  const double eps = GetParam();
  auto rr = RandomizedResponse::Create(eps).value();
  const double p1 = rr.ReportOneProbability(1).value();
  const double p0 = rr.ReportOneProbability(0).value();
  const double ratio = std::max(std::fabs(std::log(p1 / p0)),
                                std::fabs(std::log((1.0 - p1) / (1.0 - p0))));
  EXPECT_NEAR(ratio, eps, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, RandomizedResponseProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// Property: Gibbs posterior degrades gracefully: total variation between
// posteriors on neighbors is bounded via the privacy level.

class GibbsStabilityProperty : public ::testing::TestWithParam<double> {};

TEST_P(GibbsStabilityProperty, NeighborPosteriorsCloseInTotalVariation) {
  const double lambda = GetParam();
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 9).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
  const std::size_t n = 10;
  Dataset a;
  for (std::size_t i = 0; i < n; ++i) a.Add(Example{Vector{1.0}, i % 2 == 0 ? 1.0 : 0.0});
  Dataset b = a.ReplaceExample(0, Example{Vector{1.0}, 0.0}).value();
  auto pa = gibbs.Posterior(a).value();
  auto pb = gibbs.Posterior(b).value();
  double tv = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) tv += 0.5 * std::fabs(pa[i] - pb[i]);
  // eps-DP implies TV <= 1 - e^{-eps} <= eps.
  const double eps =
      gibbs.PrivacyGuaranteeEpsilon(EmpiricalRiskSensitivityBound(loss, n).value()).value();
  EXPECT_LE(tv, eps + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, GibbsStabilityProperty,
                         ::testing::Values(0.5, 2.0, 8.0, 32.0, 128.0));

}  // namespace
}  // namespace dplearn
