#include "core/utility_bounds.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/risk.h"

namespace dplearn {
namespace {

TEST(ExcessTrueRiskBoundTest, HoldsEmpiricallyOverSamplesAndDraws) {
  // Full pipeline check: resample data AND the Gibbs draw; compare the
  // TRUE excess risk (closed form) against the bound at joint level delta.
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  auto task = BernoulliMeanTask::Create(0.4).value();
  const std::size_t n = 150;
  const double lambda = 30.0;
  const double delta = 0.1;
  const double bound =
      GibbsExcessTrueRiskBound(lambda, hclass.size(), n, 1.0, delta).value();
  // Best true risk over the grid == Bayes risk at theta = 0.4 (on grid).
  double best_true = 1.0;
  for (std::size_t i = 0; i < hclass.size(); ++i) {
    best_true = std::min(best_true, task.TrueRisk(hclass.at(i)[0]));
  }
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
  Rng rng(3);
  int violations = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    Dataset data = task.Sample(n, &rng).value();
    const std::size_t index = gibbs.Sample(data, &rng).value();
    if (task.TrueRisk(hclass.at(index)[0]) - best_true > bound) ++violations;
  }
  EXPECT_LE(static_cast<double>(violations) / trials, delta);
}

TEST(ExcessTrueRiskBoundTest, Validation) {
  EXPECT_FALSE(GibbsExcessTrueRiskBound(0.0, 10, 100, 1.0, 0.05).ok());
  EXPECT_FALSE(GibbsExcessTrueRiskBound(1.0, 10, 0, 1.0, 0.05).ok());
  EXPECT_FALSE(GibbsExcessTrueRiskBound(1.0, 10, 100, 0.0, 0.05).ok());
}

}  // namespace
}  // namespace dplearn
