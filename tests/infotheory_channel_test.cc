#include "infotheory/channel.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>
#include "infotheory/entropy.h"

namespace dplearn {
namespace {

DiscreteChannel BinarySymmetricChannel(double flip) {
  return DiscreteChannel::Create({{1.0 - flip, flip}, {flip, 1.0 - flip}}).value();
}

TEST(ChannelTest, CreateValidation) {
  EXPECT_TRUE(DiscreteChannel::Create({{0.5, 0.5}, {0.1, 0.9}}).ok());
  EXPECT_FALSE(DiscreteChannel::Create({{0.5, 0.4}, {0.1, 0.9}}).ok());
  EXPECT_FALSE(DiscreteChannel::Create({{0.5, 0.5}, {1.0}}).ok());
  EXPECT_FALSE(DiscreteChannel::Create({}).ok());
}

TEST(ChannelTest, OutputDistribution) {
  DiscreteChannel bsc = BinarySymmetricChannel(0.1);
  auto py = bsc.OutputDistribution({0.5, 0.5});
  ASSERT_TRUE(py.ok());
  EXPECT_NEAR((*py)[0], 0.5, 1e-12);
  auto py2 = bsc.OutputDistribution({1.0, 0.0});
  ASSERT_TRUE(py2.ok());
  EXPECT_NEAR((*py2)[0], 0.9, 1e-12);
  EXPECT_FALSE(bsc.OutputDistribution({1.0}).ok());
}

TEST(ChannelTest, MutualInformationOfBscAtUniformInput) {
  // I = log2 - H(flip) in nats for uniform input.
  const double flip = 0.11;
  DiscreteChannel bsc = BinarySymmetricChannel(flip);
  const double expected = std::log(2.0) - BinaryEntropy(flip).value();
  EXPECT_NEAR(bsc.MutualInformation({0.5, 0.5}).value(), expected, 1e-12);
}

TEST(ChannelTest, NoiselessChannelHasInputEntropyMi) {
  DiscreteChannel ident = DiscreteChannel::Create({{1.0, 0.0}, {0.0, 1.0}}).value();
  EXPECT_NEAR(ident.MutualInformation({0.3, 0.7}).value(), Entropy({0.3, 0.7}).value(),
              1e-12);
}

TEST(ChannelTest, UselessChannelHasZeroMi) {
  DiscreteChannel useless = DiscreteChannel::Create({{0.6, 0.4}, {0.6, 0.4}}).value();
  EXPECT_NEAR(useless.MutualInformation({0.3, 0.7}).value(), 0.0, 1e-12);
}

TEST(ChannelTest, MaxLogRatioOfRandomizedResponse) {
  // RR with eps: transition [[p,1-p],[1-p,p]], p = e^eps/(1+e^eps).
  const double eps = 1.3;
  const double p = std::exp(eps) / (1.0 + std::exp(eps));
  DiscreteChannel rr = DiscreteChannel::Create({{p, 1.0 - p}, {1.0 - p, p}}).value();
  EXPECT_NEAR(rr.MaxLogRatio({}), eps, 1e-12);
  EXPECT_NEAR(rr.MaxLogRatio({{0, 1}}), eps, 1e-12);
}

TEST(ChannelTest, MaxLogRatioUnboundedWhenSupportDiffers) {
  DiscreteChannel c = DiscreteChannel::Create({{1.0, 0.0}, {0.5, 0.5}}).value();
  EXPECT_TRUE(std::isinf(c.MaxLogRatio({})));
}

TEST(ChannelTest, MaxLogRatioRestrictedToNeighbors) {
  // Three inputs; only (0,1) declared neighbors. Input 2 is wildly
  // different but must not count.
  DiscreteChannel c =
      DiscreteChannel::Create({{0.5, 0.5}, {0.45, 0.55}, {0.01, 0.99}}).value();
  const double restricted = c.MaxLogRatio({{0, 1}});
  const double full = c.MaxLogRatio({});
  EXPECT_LT(restricted, 0.2);
  EXPECT_GT(full, 3.0);
}

TEST(ChannelCapacityTest, BscCapacityMatchesClosedForm) {
  const double flip = 0.2;
  DiscreteChannel bsc = BinarySymmetricChannel(flip);
  const double expected = std::log(2.0) - BinaryEntropy(flip).value();
  auto cap = bsc.Capacity();
  ASSERT_TRUE(cap.ok());
  EXPECT_NEAR(*cap, expected, 1e-7);
}

TEST(ChannelCapacityTest, NoiselessTernaryCapacityIsLog3) {
  DiscreteChannel c =
      DiscreteChannel::Create({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}}).value();
  EXPECT_NEAR(c.Capacity().value(), std::log(3.0), 1e-7);
}

TEST(ChannelCapacityTest, UselessChannelHasZeroCapacity) {
  DiscreteChannel c = DiscreteChannel::Create({{0.5, 0.5}, {0.5, 0.5}}).value();
  EXPECT_NEAR(c.Capacity().value(), 0.0, 1e-9);
}

TEST(ChannelCapacityTest, ErasureChannelCapacity) {
  // Binary erasure channel with erasure prob e: capacity (1-e) log 2.
  const double e = 0.3;
  DiscreteChannel bec =
      DiscreteChannel::Create({{1.0 - e, e, 0.0}, {0.0, e, 1.0 - e}}).value();
  EXPECT_NEAR(bec.Capacity().value(), (1.0 - e) * std::log(2.0), 1e-6);
}

TEST(ChannelCapacityTest, CapacityUpperBoundsMiAtAnyInput) {
  DiscreteChannel bsc = BinarySymmetricChannel(0.15);
  const double cap = bsc.Capacity().value();
  for (double p : {0.1, 0.3, 0.5, 0.8}) {
    EXPECT_LE(bsc.MutualInformation({p, 1.0 - p}).value(), cap + 1e-9);
  }
}

TEST(ChannelCapacityTest, RejectsBadParameters) {
  DiscreteChannel bsc = BinarySymmetricChannel(0.2);
  EXPECT_FALSE(bsc.Capacity(0.0).ok());
  EXPECT_FALSE(bsc.Capacity(1e-9, 0).ok());
  auto nan_tol = bsc.Capacity(std::nan(""));
  ASSERT_FALSE(nan_tol.ok());
  EXPECT_EQ(nan_tol.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dplearn
