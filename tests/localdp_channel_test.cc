#include "localdp/local_channel.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>
#include "learning/generators.h"
#include "learning/loss.h"
#include "learning/preprocess.h"
#include "localdp/local_dp_sgd.h"
#include "sampling/rng.h"
#include "util/matrix.h"

namespace dplearn {
namespace localdp {
namespace {

template <typename T>
T Unwrap(StatusOr<T> value) {
  EXPECT_TRUE(value.ok()) << value.status().message();
  return std::move(value).value();
}

Example MakeExample(Vector features, double label) {
  Example z;
  z.features = std::move(features);
  z.label = label;
  return z;
}

// ---------------------------------------------------------------------------
// RandomizedResponseChannel.

TEST(RandomizedResponseChannelTest, CreateValidation) {
  EXPECT_FALSE(RandomizedResponseChannel::Create(0.0, {0.0, 1.0}).ok());
  EXPECT_FALSE(RandomizedResponseChannel::Create(-1.0, {0.0, 1.0}).ok());
  EXPECT_FALSE(RandomizedResponseChannel::Create(1.0, {0.0}).ok());
  EXPECT_FALSE(RandomizedResponseChannel::Create(1.0, {0.0, 0.0}).ok());
  EXPECT_FALSE(RandomizedResponseChannel::Create(2000.0, {0.0, 1.0}).ok());
  EXPECT_TRUE(RandomizedResponseChannel::Create(1.0, {0.0, 1.0, 2.0}).ok());
}

TEST(RandomizedResponseChannelTest, TransitionMatrixIsTheClosedForm) {
  const double eps = 1.3;
  auto channel = Unwrap(RandomizedResponseChannel::Create(eps, {0.0, 1.0, 2.0, 3.0}));
  const double e_eps = std::exp(eps);
  const double p_truth = e_eps / (e_eps + 3.0);
  const double p_other = 1.0 / (e_eps + 3.0);
  EXPECT_NEAR(channel.truth_probability(), p_truth, 1e-15);
  const auto transition = channel.TransitionMatrix();
  ASSERT_EQ(transition.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(transition[i][j], i == j ? p_truth : p_other, 1e-15);
      row_sum += transition[i][j];
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-12);
  }
}

TEST(RandomizedResponseChannelTest, LikelihoodRatioAchievesEpsilonExactly) {
  // RR is the extremal channel: reporting a's true label distinguishes a
  // from b at exactly log(p_truth/p_other) = eps nats.
  const double eps = 0.8;
  auto channel = Unwrap(RandomizedResponseChannel::Create(eps, {-1.0, 1.0}));
  const Example a = MakeExample({0.5}, -1.0);
  const Example b = MakeExample({0.5}, 1.0);
  const Example output = MakeExample({0.5}, -1.0);
  EXPECT_NEAR(Unwrap(channel.LogLikelihoodRatio(a, b, output)), eps, 1e-12);
  EXPECT_TRUE(channel.SelfAuditPair(a, b, output).ok());
  // A tightened epsilon claim must trip the audit: check against a channel
  // that promises less than the realized ratio.
  auto tighter = Unwrap(RandomizedResponseChannel::Create(eps / 2.0, {-1.0, 1.0}));
  const Example same_ratio = output;  // ratio for the tighter channel is eps/2 — fine
  EXPECT_TRUE(tighter.SelfAuditPair(a, b, same_ratio).ok());
}

TEST(RandomizedResponseChannelTest, PrivatizeMatchesTransitionFrequencies) {
  const double eps = 1.0;
  auto channel = Unwrap(RandomizedResponseChannel::Create(eps, {0.0, 1.0, 2.0}));
  Rng rng(7);
  const Example input = MakeExample({3.0, -2.0}, 1.0);
  const std::size_t n = 20000;
  std::vector<double> counts(3, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Example out = Unwrap(channel.Privatize(input, &rng));
    EXPECT_EQ(out.features, input.features);  // features pass through verbatim
    counts[Unwrap(channel.LabelIndex(out.label))] += 1.0;
  }
  const auto transition = channel.TransitionMatrix();
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(counts[j] / static_cast<double>(n), transition[1][j], 0.02);
  }
}

TEST(RandomizedResponseChannelTest, RejectsLabelsOutsideTheAlphabet) {
  auto channel = Unwrap(RandomizedResponseChannel::Create(1.0, {0.0, 1.0}));
  Rng rng(3);
  EXPECT_FALSE(channel.Privatize(MakeExample({0.0}, 2.0), &rng).ok());
  EXPECT_FALSE(channel
                   .OutputLogDensity(MakeExample({0.0}, 0.0), MakeExample({0.0}, 7.0))
                   .ok());
}

// ---------------------------------------------------------------------------
// DjwL2Channel.

TEST(DjwL2ChannelTest, CreateValidation) {
  EXPECT_FALSE(DjwL2Channel::Create(0.0, 1.0, 3).ok());
  EXPECT_FALSE(DjwL2Channel::Create(1.0, 0.0, 3).ok());
  EXPECT_FALSE(DjwL2Channel::Create(1.0, 1.0, 0).ok());
  EXPECT_FALSE(DjwL2Channel::Create(2000.0, 1.0, 3).ok());
  EXPECT_TRUE(DjwL2Channel::Create(1.0, 1.0, 1).ok());
}

TEST(DjwL2ChannelTest, PositiveHemisphereMeanDotClosedForms) {
  EXPECT_NEAR(PositiveHemisphereMeanDot(1), 1.0, 1e-12);
  EXPECT_NEAR(PositiveHemisphereMeanDot(2), 2.0 / M_PI, 1e-12);
  EXPECT_NEAR(PositiveHemisphereMeanDot(3), 0.5, 1e-12);
  // Large-d asymptotic sqrt(2/(pi d)) — and the lgamma form must not
  // overflow where the direct Gamma ratio would.
  EXPECT_NEAR(PositiveHemisphereMeanDot(1000), std::sqrt(2.0 / (M_PI * 1000.0)),
              1e-4);
}

TEST(DjwL2ChannelTest, OutputsLandOnTheOutputSphere) {
  auto channel = Unwrap(DjwL2Channel::Create(1.0, 2.0, 4));
  Rng rng(5);
  const Vector v = {0.3, -1.0, 0.5, 0.2};
  for (int i = 0; i < 200; ++i) {
    const Vector z = Unwrap(channel.PrivatizeVector(v, &rng));
    EXPECT_NEAR(Norm2(z), channel.output_norm(), 1e-9 * channel.output_norm());
  }
}

TEST(DjwL2ChannelTest, PrivatizedVectorsAreUnbiased) {
  // E[z | v] = v is the whole point of the B calibration: the empirical mean
  // of many privatized draws must converge to the input.
  auto channel = Unwrap(DjwL2Channel::Create(1.5, 1.0, 3));
  Rng rng(17);
  const Vector v = {0.4, -0.3, 0.2};
  const std::size_t n = 60000;
  Vector mean(3, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    AxpyInPlace(&mean, 1.0 / static_cast<double>(n),
                Unwrap(channel.PrivatizeVector(v, &rng)));
  }
  // Per-coordinate stderr ~ B / sqrt(n); B ~ 2.9 here, so 3 sigma ~ 0.036.
  const double tol = 3.0 * channel.output_norm() / std::sqrt(static_cast<double>(n));
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(mean[j], v[j], tol) << "coordinate " << j;
  }
}

TEST(DjwL2ChannelTest, ZeroVectorAndDomainErrors) {
  auto channel = Unwrap(DjwL2Channel::Create(1.0, 1.0, 2));
  Rng rng(9);
  const Vector zero = {0.0, 0.0};
  const Vector z = Unwrap(channel.PrivatizeVector(zero, &rng));
  EXPECT_NEAR(Norm2(z), channel.output_norm(), 1e-9);
  EXPECT_FALSE(channel.PrivatizeVector({2.0, 0.0}, &rng).ok());   // outside the ball
  EXPECT_FALSE(channel.PrivatizeVector({1.0}, &rng).ok());        // wrong dimension
  EXPECT_FALSE(channel.VectorLogDensity(zero, {0.5, 0.5}).ok());  // off the sphere
}

TEST(DjwL2ChannelTest, LikelihoodRatioAchievesEpsilonAtAntipodalInputs) {
  // For v = +r e1 the sphere rounding is deterministic (p_plus = 1), so the
  // output density is tau on the positive hemisphere; for v = -r e1 it is
  // 1 - tau there. The ratio at any positive-hemisphere output is exactly
  // tau/(1-tau) = e^eps — the DJW bound met with equality.
  const double eps = 1.2;
  auto channel = Unwrap(DjwL2Channel::Create(eps, 1.0, 3));
  Rng rng(21);
  const Example plus = MakeExample({1.0, 0.0, 0.0}, 0.0);
  const Example minus = MakeExample({-1.0, 0.0, 0.0}, 0.0);
  const Example output = Unwrap(channel.Privatize(plus, &rng));
  EXPECT_NEAR(Unwrap(channel.LogLikelihoodRatio(plus, minus, output)), eps, 1e-12);
  EXPECT_TRUE(channel.SelfAuditPair(plus, minus, output).ok());
}

TEST(DjwL2ChannelTest, LikelihoodRatioBoundedForInteriorInputs) {
  auto channel = Unwrap(DjwL2Channel::Create(0.7, 1.0, 4));
  Rng rng(33);
  const Example a = MakeExample({0.2, -0.4, 0.1, 0.3}, 0.0);
  const Example b = MakeExample({-0.6, 0.0, 0.5, -0.2}, 0.0);
  for (int i = 0; i < 100; ++i) {
    const Example output = Unwrap(channel.Privatize(i % 2 == 0 ? a : b, &rng));
    EXPECT_LE(Unwrap(channel.LogLikelihoodRatio(a, b, output)),
              channel.epsilon() + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// LocalDpSgd.

class LocalDpSgdTest : public ::testing::Test {
 protected:
  LocalDpSgdTest()
      : loss_(50.0), task_(GaussianMixtureTask::Create({0.6, 0.3}, 0.6).value()) {
    Rng rng(21);
    data_ = ClipFeatureNorm(task_.Sample(300, &rng).value(), 1.0).value();
  }

  LogisticLoss loss_;
  GaussianMixtureTask task_;
  Dataset data_;
};

TEST_F(LocalDpSgdTest, LearnsAtGenerousBudget) {
  LocalDpSgdOptions options;
  options.epsilon_per_round = 2.0;
  options.rounds = 60;
  options.learning_rate = 0.4;
  Rng rng(1);
  auto result = LocalDpSgd(loss_, data_, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->rounds, 60u);
  EXPECT_LT(task_.TrueZeroOneRisk(result->theta), 0.35);
  EXPECT_GT(result->mean_clipped_gradient_norm, 0.0);
  EXPECT_LE(result->mean_clipped_gradient_norm, options.clip_norm + 1e-12);
}

TEST_F(LocalDpSgdTest, BudgetIsPureComposition) {
  LocalDpSgdOptions options;
  options.epsilon_per_round = 0.25;
  options.rounds = 40;
  Rng rng(2);
  auto result = LocalDpSgd(loss_, data_, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->budget.epsilon, 10.0, 1e-12);
  EXPECT_EQ(result->budget.delta, 0.0);  // pure eps-LDP: the channel has no delta
}

TEST_F(LocalDpSgdTest, DeterministicForFixedSeed) {
  LocalDpSgdOptions options;
  options.rounds = 10;
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(LocalDpSgd(loss_, data_, options, &a)->theta,
            LocalDpSgd(loss_, data_, options, &b)->theta);
}

TEST_F(LocalDpSgdTest, Validation) {
  Rng rng(1);
  LocalDpSgdOptions options;
  EXPECT_FALSE(LocalDpSgd(loss_, Dataset(), options, &rng).ok());
  EXPECT_FALSE(LocalDpSgd(loss_, data_, options, nullptr).ok());
  ZeroOneLoss no_grad;
  EXPECT_FALSE(LocalDpSgd(no_grad, data_, options, &rng).ok());
  LocalDpSgdOptions bad = options;
  bad.epsilon_per_round = 0.0;
  EXPECT_FALSE(LocalDpSgd(loss_, data_, bad, &rng).ok());
  bad = options;
  bad.clip_norm = 0.0;
  EXPECT_FALSE(LocalDpSgd(loss_, data_, bad, &rng).ok());
  bad = options;
  bad.rounds = 0;
  EXPECT_FALSE(LocalDpSgd(loss_, data_, bad, &rng).ok());
  bad = options;
  bad.l2_lambda = -1.0;
  EXPECT_FALSE(LocalDpSgd(loss_, data_, bad, &rng).ok());
}

}  // namespace
}  // namespace localdp
}  // namespace dplearn
