#include "core/membership_attack.h"

#include <cmath>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

Dataset BitData(std::initializer_list<double> bits) {
  Dataset d;
  for (double b : bits) d.Add(Example{Vector{1.0}, b});
  return d;
}

TEST(DpAdvantageBoundTest, KnownValues) {
  EXPECT_NEAR(DpMembershipAdvantageBound(0.0).value(), 0.0, 1e-12);
  const double eps = 1.0;
  EXPECT_NEAR(DpMembershipAdvantageBound(eps).value(),
              (std::exp(eps) - 1.0) / (std::exp(eps) + 1.0), 1e-12);
  EXPECT_NEAR(DpMembershipAdvantageBound(100.0).value(), 1.0, 1e-12);
  EXPECT_FALSE(DpMembershipAdvantageBound(-0.1).ok());
}

TEST(DpAdvantageBoundTest, RejectsNan) {
  // tanh(NaN/2) is NaN: a NaN epsilon must be refused, not turned into a cap.
  EXPECT_EQ(DpMembershipAdvantageBound(std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BayesAttackTest, PerfectlyPrivateMechanismGivesCoinFlip) {
  AttackTargetMechanism constant = [](const Dataset&) -> StatusOr<std::vector<double>> {
    return std::vector<double>{0.5, 0.5};
  };
  auto result = BayesMembershipAttack(constant, BitData({0.0, 1.0}), 0,
                                      Example{Vector{1.0}, 1.0}, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->accuracy, 0.5, 1e-12);
  EXPECT_NEAR(result->advantage, 0.0, 1e-12);
}

TEST(BayesAttackTest, LeakyMechanismGivesPerfectAttack) {
  AttackTargetMechanism leaky = [](const Dataset& d) -> StatusOr<std::vector<double>> {
    if (d.at(0).label == 1.0) return std::vector<double>{1.0, 0.0};
    return std::vector<double>{0.0, 1.0};
  };
  auto result = BayesMembershipAttack(leaky, BitData({0.0, 1.0}), 0,
                                      Example{Vector{1.0}, 1.0}, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->accuracy, 1.0, 1e-12);
  EXPECT_NEAR(result->advantage, 1.0, 1e-12);
  // A perfect attack EXCEEDS the eps=1 bound — evidence the mechanism is
  // not 1-DP, which is exactly the audit signal.
  EXPECT_GT(result->advantage, result->dp_advantage_bound);
}

TEST(BayesAttackTest, GibbsEstimatorAdvantageWithinDpBound) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  const std::size_t n = 10;
  Dataset base = BitData({1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0});
  for (double lambda : {1.0, 8.0, 64.0}) {
    auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
    const double eps =
        gibbs.PrivacyGuaranteeEpsilon(EmpiricalRiskSensitivityBound(loss, n).value())
            .value();
    AttackTargetMechanism mechanism = [&gibbs](const Dataset& d) {
      return gibbs.Posterior(d);
    };
    auto result = BayesMembershipAttack(mechanism, base, 0, Example{Vector{1.0}, 0.0},
                                        eps)
                      .value();
    EXPECT_LE(result.advantage, result.dp_advantage_bound + 1e-12) << "lambda=" << lambda;
    EXPECT_GE(result.accuracy, 0.5);
  }
}

TEST(BayesAttackTest, AdvantageGrowsWithLambda) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  Dataset base = BitData({1.0, 0.0, 1.0, 0.0});
  double previous = -1.0;
  for (double lambda : {0.5, 4.0, 32.0}) {
    auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
    AttackTargetMechanism mechanism = [&gibbs](const Dataset& d) {
      return gibbs.Posterior(d);
    };
    auto result =
        BayesMembershipAttack(mechanism, base, 0, Example{Vector{1.0}, 0.0}, 1.0).value();
    EXPECT_GT(result.advantage, previous);
    previous = result.advantage;
  }
}

TEST(BayesAttackTest, Validation) {
  AttackTargetMechanism ok = [](const Dataset&) -> StatusOr<std::vector<double>> {
    return std::vector<double>{1.0};
  };
  Dataset base = BitData({0.0, 1.0});
  EXPECT_FALSE(
      BayesMembershipAttack(nullptr, base, 0, Example{Vector{1.0}, 1.0}, 1.0).ok());
  EXPECT_FALSE(BayesMembershipAttack(ok, base, 5, Example{Vector{1.0}, 1.0}, 1.0).ok());
  // Replacement identical to the existing record: no neighbor pair.
  EXPECT_FALSE(BayesMembershipAttack(ok, base, 0, Example{Vector{1.0}, 0.0}, 1.0).ok());
}

TEST(SimulatedAttackTest, MatchesBayesClosedForm) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 7).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 20.0).value();
  Dataset base = BitData({1.0, 0.0, 1.0, 0.0, 1.0});
  const Example replacement{Vector{1.0}, 0.0};

  AttackTargetMechanism exact = [&gibbs](const Dataset& d) { return gibbs.Posterior(d); };
  SamplingAttackTarget sampler = [&gibbs](const Dataset& d, Rng* rng) {
    return gibbs.Sample(d, rng);
  };
  auto closed = BayesMembershipAttack(exact, base, 0, replacement, 1.0).value();
  Rng rng(5);
  auto simulated =
      SimulatedMembershipAttack(sampler, exact, base, 0, replacement, 1.0, 200000, &rng)
          .value();
  EXPECT_NEAR(simulated.accuracy, closed.accuracy, 0.01);
  EXPECT_EQ(simulated.rounds, 200000u);
}

TEST(SimulatedAttackTest, Validation) {
  AttackTargetMechanism exact = [](const Dataset&) -> StatusOr<std::vector<double>> {
    return std::vector<double>{1.0};
  };
  SamplingAttackTarget sampler = [](const Dataset&, Rng*) -> StatusOr<std::size_t> {
    return 0;
  };
  Dataset base = BitData({0.0, 1.0});
  Rng rng(1);
  EXPECT_FALSE(SimulatedMembershipAttack(nullptr, exact, base, 0,
                                         Example{Vector{1.0}, 1.0}, 1.0, 10, &rng)
                   .ok());
  EXPECT_FALSE(SimulatedMembershipAttack(sampler, exact, base, 0,
                                         Example{Vector{1.0}, 1.0}, 1.0, 0, &rng)
                   .ok());
}

}  // namespace
}  // namespace dplearn
