#include "mechanisms/subsample.h"

#include <gtest/gtest.h>

namespace dplearn {
namespace {

Dataset BitData(std::size_t n) {
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    d.Add(Example{Vector{1.0}, i % 2 == 0 ? 1.0 : 0.0});
  }
  return d;
}

TEST(PoissonSubsampleTest, KeepRateMatchesQ) {
  Rng rng(1);
  const std::size_t n = 2000;
  double total = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    total += static_cast<double>(PoissonSubsample(BitData(n), 0.3, &rng)->size());
  }
  EXPECT_NEAR(total / (trials * n), 0.3, 0.01);
}

TEST(PoissonSubsampleTest, QOneKeepsEverything) {
  Rng rng(2);
  Dataset d = BitData(50);
  auto sub = PoissonSubsample(d, 1.0, &rng);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*sub, d);
  EXPECT_FALSE(PoissonSubsample(d, 0.0, &rng).ok());
  EXPECT_FALSE(PoissonSubsample(d, 1.5, &rng).ok());
}

}  // namespace
}  // namespace dplearn
