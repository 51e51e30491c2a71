#include "infotheory/fano.h"

#include <cmath>

#include <gtest/gtest.h>
#include "core/learning_channel.h"
#include "infotheory/entropy.h"
#include "learning/generators.h"

namespace dplearn {
namespace {

TEST(FanoTest, ZeroMiForcesChanceError) {
  // I = 0, M hypotheses: error >= 1 - ln2/lnM.
  EXPECT_NEAR(FanoErrorLowerBound(0.0, 4).value(), 1.0 - std::log(2.0) / std::log(4.0),
              1e-12);
  EXPECT_NEAR(FanoErrorLowerBound(0.0, 1024).value(),
              1.0 - std::log(2.0) / std::log(1024.0), 1e-12);
}

TEST(FanoTest, LargeMiGivesVacuousBound) {
  EXPECT_EQ(FanoErrorLowerBound(100.0, 4).value(), 0.0);
}

TEST(FanoTest, MonotoneDecreasingInMi) {
  double previous = 1.0;
  for (double mi : {0.0, 0.2, 0.5, 1.0, 1.3}) {
    const double bound = FanoErrorLowerBound(mi, 8).value();
    EXPECT_LE(bound, previous + 1e-12);
    previous = bound;
  }
}

TEST(FanoTest, Validation) {
  EXPECT_FALSE(FanoErrorLowerBound(1.0, 1).ok());
  EXPECT_FALSE(FanoErrorLowerBound(-0.1, 4).ok());
}

TEST(FanoTest, RejectsNan) {
  // Clamp would turn the NaN bound into 0, a vacuous floor that any
  // decoder passes.
  EXPECT_EQ(FanoErrorLowerBound(std::nan(""), 13).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LeCamTest, KnownValuesAndValidation) {
  EXPECT_EQ(LeCamErrorLowerBound(0.0).value(), 0.5);
  EXPECT_EQ(LeCamErrorLowerBound(1.0).value(), 0.0);
  EXPECT_NEAR(LeCamErrorLowerBound(0.4).value(), 0.3, 1e-12);
  EXPECT_FALSE(LeCamErrorLowerBound(-0.1).ok());
  EXPECT_FALSE(LeCamErrorLowerBound(1.1).ok());
}

TEST(LeCamTest, RejectsNan) {
  EXPECT_EQ(LeCamErrorLowerBound(std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PinskerTest, KnownValuesAndValidation) {
  EXPECT_EQ(PinskerTvUpperBound(0.0).value(), 0.0);
  EXPECT_NEAR(PinskerTvUpperBound(0.5).value(), 0.5, 1e-12);
  EXPECT_EQ(PinskerTvUpperBound(1000.0).value(), 1.0);  // clamped
  EXPECT_FALSE(PinskerTvUpperBound(-1.0).ok());
}

TEST(PinskerTest, RejectsNan) {
  // min(1, NaN) is 1, which Le Cam would turn into a vacuous floor of 0.
  EXPECT_EQ(PinskerTvUpperBound(std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PinskerTest, DominatesActualTvOnExamples) {
  // TV({0.8,0.2},{0.5,0.5}) = 0.3; KL = ...; Pinsker must dominate.
  const double kl = KlDivergence({0.8, 0.2}, {0.5, 0.5}).value();
  EXPECT_GE(PinskerTvUpperBound(kl).value(), 0.3 - 1e-12);
}

TEST(FanoOnGibbsChannelTest, BoundHoldsForBayesDecoder) {
  // Decode k from theta over the exact Gibbs channel with uniform k prior;
  // the Bayes decoder's error must respect Fano's bound computed from the
  // channel's MI at that prior.
  auto task = BernoulliMeanTask::Create(0.5).value();
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 9).value();
  const std::size_t n = 6;
  for (double lambda : {1.0, 8.0, 64.0}) {
    auto channel = BuildBernoulliGibbsChannel(task, n, loss, hclass,
                                              hclass.UniformPrior(), lambda)
                       .value();
    // Uniform prior over the n+1 inputs for the M-ary test.
    std::vector<double> uniform(n + 1, 1.0 / static_cast<double>(n + 1));
    const double mi = channel.channel.MutualInformation(uniform).value();
    const double fano = FanoErrorLowerBound(mi, n + 1).value();
    // Bayes decoder: argmax_k P(k|theta) = argmax_k W[k][theta] (uniform prior).
    double success = 0.0;
    for (std::size_t theta = 0; theta < channel.channel.num_outputs(); ++theta) {
      double best = 0.0;
      for (std::size_t k = 0; k <= n; ++k) {
        best = std::max(best, uniform[k] * channel.channel.TransitionProbability(k, theta));
      }
      success += best;
    }
    const double bayes_error = 1.0 - success;
    EXPECT_GE(bayes_error, fano - 1e-9) << "lambda=" << lambda;
  }
}

}  // namespace
}  // namespace dplearn
