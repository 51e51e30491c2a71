#include "util/math_util.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace dplearn {
namespace {

TEST(LogSumExpTest, MatchesDirectComputationOnSmallValues) {
  std::vector<double> x = {0.0, 1.0, 2.0};
  const double expected = std::log(std::exp(0.0) + std::exp(1.0) + std::exp(2.0));
  EXPECT_NEAR(LogSumExp(x), expected, 1e-12);
}

TEST(LogSumExpTest, StableForLargeMagnitudes) {
  std::vector<double> x = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(x), 1000.0 + std::log(2.0), 1e-9);
  std::vector<double> y = {-1000.0, -1000.0};
  EXPECT_NEAR(LogSumExp(y), -1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, EmptyIsNegativeInfinity) {
  EXPECT_EQ(LogSumExp({}), -std::numeric_limits<double>::infinity());
}

TEST(LogSumExpTest, AllNegativeInfinity) {
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(LogSumExp({ninf, ninf}), ninf);
}

TEST(LogAddExpTest, Basic) {
  EXPECT_NEAR(LogAddExp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-12);
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(LogAddExp(ninf, 1.5), 1.5);
  EXPECT_EQ(LogAddExp(1.5, ninf), 1.5);
}

TEST(SoftmaxFromLogTest, NormalizesCorrectly) {
  auto p = SoftmaxFromLog({std::log(1.0), std::log(3.0)});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)[0], 0.25, 1e-12);
  EXPECT_NEAR((*p)[1], 0.75, 1e-12);
}

TEST(SoftmaxFromLogTest, StableForHugeSpread) {
  auto p = SoftmaxFromLog({-5000.0, 0.0, -5000.0});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)[1], 1.0, 1e-12);
}

TEST(SoftmaxFromLogTest, RejectsEmptyAndAllZero) {
  EXPECT_FALSE(SoftmaxFromLog({}).ok());
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_FALSE(SoftmaxFromLog({ninf, ninf}).ok());
}

TEST(XLogXTest, ZeroConvention) {
  EXPECT_EQ(XLogX(0.0), 0.0);
  EXPECT_NEAR(XLogX(1.0), 0.0, 1e-15);
  EXPECT_NEAR(XLogX(2.0), 2.0 * std::log(2.0), 1e-12);
}

TEST(XLogXOverYTest, Conventions) {
  EXPECT_EQ(XLogXOverY(0.0, 0.5), 0.0);
  EXPECT_EQ(XLogXOverY(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(XLogXOverY(0.5, 0.0)));
  EXPECT_NEAR(XLogXOverY(0.5, 0.25), 0.5 * std::log(2.0), 1e-12);
}

TEST(ClampTest, Basic) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(ApproxEqualTest, Basic) {
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(ApproxEqual(1.0, 1.001));
  EXPECT_TRUE(ApproxEqual(1e9, 1e9 * (1.0 + 1e-10)));
}

TEST(ValidateDistributionTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(ValidateDistribution({0.25, 0.75}).ok());
  EXPECT_FALSE(ValidateDistribution({0.5, 0.6}).ok());
  EXPECT_FALSE(ValidateDistribution({-0.1, 1.1}).ok());
  EXPECT_FALSE(ValidateDistribution({}).ok());
}

TEST(NormalizeTest, Basic) {
  auto p = Normalize({1.0, 3.0});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)[0], 0.25, 1e-12);
  EXPECT_FALSE(Normalize({0.0, 0.0}).ok());
  EXPECT_FALSE(Normalize({-1.0, 2.0}).ok());
  EXPECT_FALSE(Normalize({}).ok());
}

TEST(LinspaceTest, EndpointsAndSpacing) {
  auto g = Linspace(0.0, 1.0, 5);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->size(), 5u);
  EXPECT_EQ((*g)[0], 0.0);
  EXPECT_EQ((*g)[4], 1.0);
  EXPECT_NEAR((*g)[2], 0.5, 1e-12);
  EXPECT_FALSE(Linspace(1.0, 0.0, 5).ok());
  EXPECT_FALSE(Linspace(0.0, 1.0, 1).ok());
}

TEST(LogSumExpTest, EmptyInputIsNegativeInfinity) {
  // log(sum of zero terms) = log(0): the identity element of logsumexp.
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(LogSumExpTest, AllNegativeInfinityStaysNegativeInfinity) {
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(LogSumExp({ninf}), ninf);
  EXPECT_EQ(LogSumExp({ninf, ninf, ninf}), ninf);
  // A single finite term dominates any number of -inf terms exactly.
  EXPECT_EQ(LogSumExp({ninf, 3.5, ninf}), 3.5);
}

TEST(LogSumExpTest, SingleElementIsExact) {
  // Exactly x0, not x0 + log(exp(0)) round-tripped through exp/log.
  EXPECT_EQ(LogSumExp({0.3}), 0.3);
  EXPECT_EQ(LogSumExp({-745.0}), -745.0);
  EXPECT_EQ(LogSumExp({1e300}), 1e300);
}

TEST(LogSumExpTest, PositiveInfinityAndNanPropagate) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(LogSumExp({1.0, inf}), inf);
  EXPECT_TRUE(std::isnan(LogSumExp({1.0, nan})));
}

TEST(KahanSumTest, MatchesNaiveSumOnBenignInput) {
  KahanSum kahan;
  double naive = 0.0;
  for (int i = 1; i <= 100; ++i) {
    kahan.Add(static_cast<double>(i));
    naive += static_cast<double>(i);
  }
  EXPECT_EQ(kahan.Value(), naive);
}

TEST(KahanSumTest, CompensatesWhereNaiveSumDrifts) {
  // 1e6 additions of 1e-3: exactly 1000 in real arithmetic. The naive float
  // sum drifts by far more than one ulp; the compensated sum does not.
  KahanSum kahan;
  double naive = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    kahan.Add(1e-3);
    naive += 1e-3;
  }
  EXPECT_NE(naive, 1000.0);
  EXPECT_EQ(kahan.Value(), 1000.0);
}

TEST(KahanSumTest, RecoversSmallTermNextToHugeTerm) {
  // Classic Neumaier case: 1 + 1e100 + 1 - 1e100. Naive summation loses both
  // ones; the compensated variant keeps them.
  KahanSum kahan;
  for (const double x : {1.0, 1e100, 1.0, -1e100}) kahan.Add(x);
  EXPECT_EQ(kahan.Value(), 2.0);
}

/// Neumaier's rule as KahanSum::Add wrote it before the step became
/// branch-free: the reference CompensatedAdd must match bitwise.
void BranchyNeumaierAdd(double x, double* sum, double* c) {
  const double t = *sum + x;
  if ((*sum >= 0 ? *sum : -*sum) >= (x >= 0 ? x : -x)) {
    *c += (*sum - t) + x;
  } else {
    *c += (x - t) + *sum;
  }
  *sum = t;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

TEST(KahanSumTest, CompensatedAddIsNeumaiersRuleBitwise) {
  const double kTiny = std::numeric_limits<double>::denorm_min();
  const double kBig = std::numeric_limits<double>::max() / 4.0;
  // (sum, correction, x): |x| > |sum| and the reverse, signed zeros,
  // exact cancellation, subnormals, huge next to tiny, inexact sums.
  const std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 0.0},       {-0.0, 0.0, 0.0},      {0.0, 0.0, -0.0},
      {-0.0, -0.0, -0.0},    {-0.0, 0.0, 1.5},      {2.5, -0.0, -0.0},
      {1.0, 0.0, 1e100},     {1e100, 0.0, 1.0},     {1.0, 1e-17, -1e100},
      {3.0, 0.0, -3.0},      {-3.0, 0.0, 3.0},      {0.1, 0.0, 0.2},
      {0.2, 1e-18, 0.1},     {kTiny, 0.0, kTiny},   {kTiny, 0.0, -1.0},
      {1.0, 0.0, kTiny},     {kBig, 0.0, kBig},     {kBig, 0.0, -kTiny},
      {-kBig, 5e300, 1.0},   {1e16, 0.0, 1.0},      {1e16, 0.0, -1.0},
      {-1e16, 0.0, 3.0},     {0.7, 0.0, -0.7000000000000001},
  };
  for (const std::vector<double>& pair : cases) {
    double s_ref = pair[0], c_ref = pair[1];
    double s = pair[0], c = pair[1];
    BranchyNeumaierAdd(pair[2], &s_ref, &c_ref);
    CompensatedAdd(pair[2], &s, &c);
    EXPECT_TRUE(SameBits(s, s_ref) && SameBits(c, c_ref))
        << "sum " << pair[0] << " c " << pair[1] << " x " << pair[2] << ": got (" << s
        << ", " << c << "), want (" << s_ref << ", " << c_ref << ")";
  }
  // Long streams of mixed signs and magnitudes, including terms far larger
  // than the running sum and cancellations back to it.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double s_ref = 0.0, c_ref = 0.0;
  KahanSum kahan;
  for (int i = 0; i < 200000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double mantissa = static_cast<double>(state >> 11) * 0x1.0p-53;
    const int exponent = static_cast<int>((state >> 3) % 80) - 40;
    double x = std::ldexp(mantissa, exponent);
    if ((state & 1) != 0) x = -x;
    if (i % 97 == 0) x = -(s_ref + c_ref);
    BranchyNeumaierAdd(x, &s_ref, &c_ref);
    kahan.Add(x);
    ASSERT_TRUE(SameBits(kahan.Value(), s_ref + c_ref)) << "step " << i;
  }
}

TEST(KahanSumTest, ResetAndInitialValue) {
  KahanSum kahan(5.0);
  kahan.Add(1.0);
  EXPECT_EQ(kahan.Value(), 6.0);
  kahan.Reset();
  EXPECT_EQ(kahan.Value(), 0.0);
  kahan.Reset(2.5);
  EXPECT_EQ(kahan.Value(), 2.5);
}

}  // namespace
}  // namespace dplearn
