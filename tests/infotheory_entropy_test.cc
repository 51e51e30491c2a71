#include "infotheory/entropy.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>
#include "util/math_util.h"

namespace dplearn {
namespace {

TEST(EntropyTest, UniformIsLogK) {
  EXPECT_NEAR(Entropy({0.5, 0.5}).value(), std::log(2.0), 1e-12);
  EXPECT_NEAR(Entropy({0.25, 0.25, 0.25, 0.25}).value(), std::log(4.0), 1e-12);
}

TEST(EntropyTest, DeterministicIsZero) {
  EXPECT_EQ(Entropy({1.0, 0.0, 0.0}).value(), 0.0);
}

TEST(EntropyTest, RejectsInvalid) {
  EXPECT_FALSE(Entropy({0.5, 0.4}).ok());
  EXPECT_FALSE(Entropy({}).ok());
}

TEST(KlDivergenceTest, ZeroIffEqual) {
  std::vector<double> p = {0.2, 0.3, 0.5};
  EXPECT_EQ(KlDivergence(p, p).value(), 0.0);
}

TEST(KlDivergenceTest, KnownValue) {
  // D({1,0} || {0.5,0.5}) = log 2.
  EXPECT_NEAR(KlDivergence({1.0, 0.0}, {0.5, 0.5}).value(), std::log(2.0), 1e-12);
}

TEST(KlDivergenceTest, NonNegativeOnRandomPairs) {
  // Gibbs' inequality sweep over a deterministic family of pairs.
  for (int i = 1; i < 10; ++i) {
    const double a = static_cast<double>(i) / 10.0;
    for (int j = 1; j < 10; ++j) {
      const double b = static_cast<double>(j) / 10.0;
      EXPECT_GE(KlDivergence({a, 1.0 - a}, {b, 1.0 - b}).value(), 0.0);
    }
  }
}

TEST(KlDivergenceTest, InfiniteWhenNotAbsolutelyContinuous) {
  EXPECT_TRUE(std::isinf(KlDivergence({0.5, 0.5}, {1.0, 0.0}).value()));
}

TEST(KlDivergenceTest, AsymmetricInGeneral) {
  const double d1 = KlDivergence({0.9, 0.1}, {0.5, 0.5}).value();
  const double d2 = KlDivergence({0.5, 0.5}, {0.9, 0.1}).value();
  EXPECT_GT(std::fabs(d1 - d2), 1e-3);
}

TEST(JensenShannonTest, SymmetricAndBounded) {
  std::vector<double> p = {0.9, 0.1};
  std::vector<double> q = {0.1, 0.9};
  const double js_pq = JensenShannonDivergence(p, q).value();
  const double js_qp = JensenShannonDivergence(q, p).value();
  EXPECT_NEAR(js_pq, js_qp, 1e-12);
  EXPECT_GT(js_pq, 0.0);
  EXPECT_LE(js_pq, std::log(2.0) + 1e-12);
  EXPECT_EQ(JensenShannonDivergence(p, p).value(), 0.0);
}

TEST(JensenShannonTest, FiniteEvenWithDisjointSupport) {
  EXPECT_NEAR(JensenShannonDivergence({1.0, 0.0}, {0.0, 1.0}).value(), std::log(2.0), 1e-12);
}

TEST(BinaryEntropyTest, KnownValues) {
  EXPECT_NEAR(BinaryEntropy(0.5).value(), std::log(2.0), 1e-12);
  EXPECT_EQ(BinaryEntropy(0.0).value(), 0.0);
  EXPECT_EQ(BinaryEntropy(1.0).value(), 0.0);
  EXPECT_FALSE(BinaryEntropy(-0.1).ok());
  EXPECT_FALSE(BinaryEntropy(1.1).ok());
}

TEST(BinaryEntropyTest, SymmetricAroundHalf) {
  EXPECT_NEAR(BinaryEntropy(0.3).value(), BinaryEntropy(0.7).value(), 1e-12);
}

}  // namespace
}  // namespace dplearn
