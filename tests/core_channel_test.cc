#include "core/learning_channel.h"

#include <cmath>

#include <gtest/gtest.h>
#include "core/regularized_objective.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

class GibbsChannelTest : public ::testing::Test {
 protected:
  GibbsChannelTest()
      : task_(BernoulliMeanTask::Create(0.4).value()),
        loss_(1.0),
        hclass_(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 9).value()) {}

  StatusOr<GibbsLearningChannel> Build(std::size_t n, double lambda) {
    return BuildBernoulliGibbsChannel(task_, n, loss_, hclass_, hclass_.UniformPrior(),
                                      lambda);
  }

  BernoulliMeanTask task_;
  ClippedSquaredLoss loss_;
  FiniteHypothesisClass hclass_;
};

TEST_F(GibbsChannelTest, ShapesAreConsistent) {
  const std::size_t n = 6;
  auto channel = Build(n, 5.0);
  ASSERT_TRUE(channel.ok());
  EXPECT_EQ(channel->channel.num_inputs(), n + 1);
  EXPECT_EQ(channel->channel.num_outputs(), hclass_.size());
  EXPECT_EQ(channel->input_marginal.size(), n + 1);
  EXPECT_EQ(channel->risk_matrix.size(), n + 1);
  EXPECT_EQ(channel->neighbor_pairs.size(), n);
}

TEST_F(GibbsChannelTest, InputMarginalIsBinomial) {
  auto channel = Build(5, 3.0).value();
  double total = 0.0;
  for (double p : channel.input_marginal) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(channel.input_marginal[0], std::pow(0.6, 5), 1e-12);
  EXPECT_NEAR(channel.input_marginal[5], std::pow(0.4, 5), 1e-12);
}

TEST_F(GibbsChannelTest, RiskMatrixMatchesClosedForm) {
  const std::size_t n = 4;
  auto channel = Build(n, 3.0).value();
  for (std::size_t k = 0; k <= n; ++k) {
    const double khat = static_cast<double>(k) / static_cast<double>(n);
    for (std::size_t i = 0; i < hclass_.size(); ++i) {
      const double theta = hclass_.at(i)[0];
      const double expected = theta * theta - 2.0 * theta * khat + khat;
      EXPECT_NEAR(channel.risk_matrix[k][i], expected, 1e-12);
    }
  }
}

TEST_F(GibbsChannelTest, PrivacyLevelWithinTheorem41Guarantee) {
  const std::size_t n = 8;
  const double lambda = 4.0;
  auto channel = Build(n, lambda).value();
  const double sensitivity = EmpiricalRiskSensitivityBound(loss_, n).value();
  const double guarantee = 2.0 * lambda * sensitivity;
  const double measured = ChannelPrivacyLevel(channel);
  EXPECT_LE(measured, guarantee + 1e-12);
  EXPECT_GT(measured, 0.0);
}

TEST_F(GibbsChannelTest, MutualInformationDecreasesWithPrivacy) {
  // Theorem 4.2's qualitative content: smaller lambda (more privacy) ->
  // smaller I(Z; theta).
  const std::size_t n = 8;
  double previous = -1.0;
  for (double lambda : {0.5, 2.0, 8.0, 32.0}) {
    auto channel = Build(n, lambda).value();
    const double mi = ChannelMutualInformation(channel).value();
    EXPECT_GT(mi, previous) << "lambda=" << lambda;
    previous = mi;
  }
}

TEST_F(GibbsChannelTest, ZeroLambdaChannelHasZeroMi) {
  auto channel = Build(6, 0.0).value();
  EXPECT_NEAR(ChannelMutualInformation(channel).value(), 0.0, 1e-12);
  EXPECT_NEAR(ChannelPrivacyLevel(channel), 0.0, 1e-12);
}

TEST_F(GibbsChannelTest, MiBoundedByChannelCapacityAndPrivacy) {
  // I <= capacity, and (standard DP fact) capacity of an eps-DP channel on
  // a chain of m neighboring inputs is at most m*eps; the loosest check
  // here is just I <= measured-eps * n (k can change by n along the chain).
  const std::size_t n = 6;
  auto channel = Build(n, 3.0).value();
  const double mi = ChannelMutualInformation(channel).value();
  const double capacity = channel.channel.Capacity().value();
  EXPECT_LE(mi, capacity + 1e-9);
  const double eps = ChannelPrivacyLevel(channel);
  EXPECT_LE(mi, eps * static_cast<double>(n) + 1e-9);
}

TEST_F(GibbsChannelTest, ExpectedEmpiricalRiskDecreasesWithLambda) {
  const std::size_t n = 8;
  double previous = 2.0;
  for (double lambda : {0.5, 4.0, 32.0, 256.0}) {
    auto channel = Build(n, lambda).value();
    // Theorem 4.2's G = E[R̂] + I/λ, less its information term.
    const double risk =
        RegularizedObjective(channel.channel.transition(), channel.input_marginal,
                             channel.risk_matrix, lambda)
            .value() -
        ChannelMutualInformation(channel).value() / lambda;
    EXPECT_LT(risk, previous) << "lambda=" << lambda;
    previous = risk;
  }
}

TEST_F(GibbsChannelTest, Validation) {
  EXPECT_FALSE(Build(0, 1.0).ok());
  EXPECT_FALSE(BuildBernoulliGibbsChannel(task_, 4, loss_, hclass_, {0.5, 0.5}, 1.0).ok());
}

}  // namespace
}  // namespace dplearn
