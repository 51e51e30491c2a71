/// Parameterized property sweeps over accounting, attack, and auxiliary
/// mechanisms — the second property suite (the first covers the paper's
/// core theorems).

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>
#include "core/membership_attack.h"
#include "infotheory/fano.h"
#include "infotheory/leakage.h"
#include "infotheory/renyi.h"
#include "mechanisms/geometric.h"
#include "mechanisms/privacy_budget.h"
#include "mechanisms/sensitivity.h"
#include "learning/generators.h"
#include "sampling/rng.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

// ---------------------------------------------------------------------------
// Property: geometric mechanism is exactly eps-DP for every eps.

class GeometricDpProperty : public ::testing::TestWithParam<double> {};

TEST_P(GeometricDpProperty, ExactMassRatioEqualsEpsilon) {
  const double eps = GetParam();
  SensitiveQuery query = CountQuery([](const Example& z) { return z.label == 1.0; });
  auto mechanism = GeometricMechanism::Create(query, eps).value();
  Dataset base;
  for (double b : {1.0, 0.0, 1.0}) base.Add(Example{Vector{1.0}, b});
  double max_ratio = 0.0;
  for (const Dataset& nb : EnumerateNeighbors(base, BernoulliMeanTask::Domain())) {
    for (std::int64_t out = -30; out <= 30; ++out) {
      const double pa = mechanism.OutputProbability(base, out).value();
      const double pb = mechanism.OutputProbability(nb, out).value();
      max_ratio = std::max(max_ratio, std::fabs(std::log(pa / pb)));
    }
  }
  EXPECT_LE(max_ratio, eps + 1e-9);
  EXPECT_NEAR(max_ratio, eps, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, GeometricDpProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// Property: Renyi divergence between geometric-mechanism outputs is within
// the pure-DP ceiling D_alpha <= eps for every order.

class RenyiDpProperty : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RenyiDpProperty, RenyiDivergenceBelowPureDpEpsilon) {
  const double eps = std::get<0>(GetParam());
  const double alpha = std::get<1>(GetParam());
  SensitiveQuery query = CountQuery([](const Example& z) { return z.label == 1.0; });
  auto mechanism = GeometricMechanism::Create(query, eps).value();
  Dataset a;
  for (double b : {1.0, 0.0}) a.Add(Example{Vector{1.0}, b});
  Dataset b = a.ReplaceExample(0, Example{Vector{1.0}, 0.0}).value();
  // Truncate the output space far into both tails; renormalize the tiny
  // remainder so the vectors are distributions.
  std::vector<double> pa;
  std::vector<double> pb;
  for (std::int64_t out = -80; out <= 80; ++out) {
    pa.push_back(mechanism.OutputProbability(a, out).value());
    pb.push_back(mechanism.OutputProbability(b, out).value());
  }
  auto norm_a = Normalize(pa).value();
  auto norm_b = Normalize(pb).value();
  const double renyi = RenyiDivergence(norm_a, norm_b, alpha).value();
  EXPECT_LE(renyi, eps + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(EpsByAlpha, RenyiDpProperty,
                         ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                                            ::testing::Values(1.5, 2.0, 8.0, 64.0)));

// ---------------------------------------------------------------------------
// Property: advanced composition dominates basic beyond a crossover k, and
// both remain valid budgets (positive).

class CompositionProperty : public ::testing::TestWithParam<double> {};

TEST_P(CompositionProperty, AdvancedBeatsBasicAtLargeK) {
  const double eps0 = GetParam();
  const double delta_prime = 1e-9;
  const std::size_t k = 10000;
  auto advanced = AdvancedComposition({eps0, 0.0}, k, delta_prime).value();
  const double basic = eps0 * static_cast<double>(k);
  EXPECT_LT(advanced.epsilon, basic);
  EXPECT_GT(advanced.epsilon, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, CompositionProperty,
                         ::testing::Values(0.001, 0.01, 0.05));

// ---------------------------------------------------------------------------
// Property: the membership-advantage cap is consistent with the Laplace
// mechanism's actual TV distance at every epsilon.

class AdvantageCapProperty : public ::testing::TestWithParam<double> {};

TEST_P(AdvantageCapProperty, LaplaceTvWithinTanhBound) {
  const double eps = GetParam();
  // TV between Lap(0, 1/eps) and Lap(Delta=1, 1/eps) equals
  // 1 - e^{-eps/2}; the DP cap is tanh(eps/2) >= that.
  const double tv = -std::expm1(-eps / 2.0);
  const double cap = DpMembershipAdvantageBound(eps).value();
  EXPECT_LE(tv, cap + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, AdvantageCapProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 8.0));

// ---------------------------------------------------------------------------
// Property: the Fano lower bound never exceeds chance error 1 - 1/M and
// never drops below 0.

class LowerBoundProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LowerBoundProperty, SanityEnvelope) {
  const std::size_t m = GetParam();
  const double chance_error = 1.0 - 1.0 / static_cast<double>(m);
  for (double mi : {0.0, 0.1, 1.0}) {
    const double fano = FanoErrorLowerBound(mi, m).value();
    EXPECT_LE(fano, chance_error + 1e-12);
    EXPECT_GE(fano, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(HypothesisCounts, LowerBoundProperty,
                         ::testing::Values(std::size_t{2}, std::size_t{8},
                                           std::size_t{64}));

// ---------------------------------------------------------------------------
// Property: min-entropy leakage <= min-capacity for arbitrary priors on a
// family of channels.

class LeakageProperty : public ::testing::TestWithParam<double> {};

TEST_P(LeakageProperty, LeakageBelowMinCapacity) {
  const double flip = GetParam();
  auto channel =
      DiscreteChannel::Create({{1.0 - flip, flip}, {flip, 1.0 - flip}}).value();
  const double min_cap = MinCapacity(channel).value();
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double leakage = MinEntropyLeakage(channel, {p, 1.0 - p}).value();
    EXPECT_LE(leakage, min_cap + 1e-12) << "prior " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(FlipProbabilities, LeakageProperty,
                         ::testing::Values(0.05, 0.2, 0.35, 0.49));

}  // namespace
}  // namespace dplearn
