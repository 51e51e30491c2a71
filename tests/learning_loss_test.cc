#include "learning/loss.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dplearn {
namespace {

Example Classify(double x, double label) { return Example{Vector{x}, label}; }

TEST(ZeroOneLossTest, CorrectAndIncorrect) {
  ZeroOneLoss loss;
  EXPECT_EQ(loss.Loss({1.0}, Classify(2.0, 1.0)), 0.0);   // margin +2
  EXPECT_EQ(loss.Loss({1.0}, Classify(-2.0, 1.0)), 1.0);  // margin -2
  EXPECT_EQ(loss.Loss({1.0}, Classify(2.0, -1.0)), 1.0);
  EXPECT_EQ(loss.Loss({0.0}, Classify(2.0, 1.0)), 1.0);  // zero margin counts as error
  EXPECT_EQ(loss.UpperBound(), 1.0);
  EXPECT_FALSE(loss.HasGradient());
}

TEST(ClippedSquaredLossTest, ValuesAndClipping) {
  ClippedSquaredLoss loss(1.0);
  // theta=0.3 on Bernoulli-style z=1: (0.3-1)^2 = 0.49.
  EXPECT_NEAR(loss.Loss({0.3}, Example{Vector{1.0}, 1.0}), 0.49, 1e-12);
  // Residual 5 -> 25 clipped to 1.
  EXPECT_EQ(loss.Loss({5.0}, Example{Vector{1.0}, 0.0}), 1.0);
  EXPECT_EQ(loss.UpperBound(), 1.0);
}

TEST(LogisticLossTest, KnownValues) {
  LogisticLoss loss(10.0);
  // Zero margin: log 2.
  EXPECT_NEAR(loss.Loss({0.0}, Classify(1.0, 1.0)), std::log(2.0), 1e-12);
  // Large positive margin: ~0.
  EXPECT_LT(loss.Loss({10.0}, Classify(1.0, 1.0)), 1e-4);
  // Large negative margin approx |margin| (clipped at 10).
  EXPECT_NEAR(loss.Loss({8.0}, Classify(1.0, -1.0)), 8.0, 1e-3);
  EXPECT_EQ(loss.Loss({100.0}, Classify(1.0, -1.0)), 10.0);
}

TEST(LogisticLossTest, GradientMatchesFiniteDifference) {
  LogisticLoss loss(100.0);
  const Example z = Classify(0.7, -1.0);
  const Vector theta = {0.4};
  const Vector grad = loss.Gradient(theta, z);
  const double h = 1e-6;
  const double fd =
      (loss.Loss({theta[0] + h}, z) - loss.Loss({theta[0] - h}, z)) / (2.0 * h);
  EXPECT_NEAR(grad[0], fd, 1e-6);
  EXPECT_TRUE(loss.HasGradient());
}

TEST(LogisticLossTest, GradientStableAtExtremeMargins) {
  LogisticLoss loss(100.0);
  const Vector grad_pos = loss.Gradient({50.0}, Classify(1.0, 1.0));
  EXPECT_NEAR(grad_pos[0], 0.0, 1e-12);
  const Vector grad_neg = loss.Gradient({-50.0}, Classify(1.0, 1.0));
  EXPECT_NEAR(grad_neg[0], -1.0, 1e-12);  // saturates at -y*x
}

TEST(AllLossesTest, HonorDeclaredBounds) {
  ClippedSquaredLoss sq(1.0);
  LogisticLoss logi(3.0);
  ZeroOneLoss zo;
  const LossFunction* losses[] = {&sq, &logi, &zo};
  for (const LossFunction* loss : losses) {
    for (double t = -20.0; t <= 20.0; t += 0.7) {
      for (double y : {-1.0, 0.0, 1.0}) {
        const double l = loss->Loss({t}, Example{Vector{1.0}, y});
        EXPECT_GE(l, 0.0) << loss->Name();
        EXPECT_LE(l, loss->UpperBound()) << loss->Name();
      }
    }
  }
}

}  // namespace
}  // namespace dplearn
