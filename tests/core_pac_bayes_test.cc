#include "core/pac_bayes.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "util/math_util.h"

namespace dplearn {
namespace {

TEST(CatoniHighProbabilityBoundTest, Validation) {
  EXPECT_TRUE(CatoniHighProbabilityBound(0.2, 1.0, 10.0, 100, 0.05).ok());
  EXPECT_FALSE(CatoniHighProbabilityBound(0.2, 1.0, 0.0, 100, 0.05).ok());
  EXPECT_FALSE(CatoniHighProbabilityBound(0.2, 1.0, 10.0, 0, 0.05).ok());
  EXPECT_FALSE(CatoniHighProbabilityBound(0.2, 1.0, 10.0, 100, 0.0).ok());
  EXPECT_FALSE(CatoniHighProbabilityBound(0.2, 1.0, 10.0, 100, 1.0).ok());
  EXPECT_FALSE(CatoniHighProbabilityBound(-0.1, 1.0, 10.0, 100, 0.05).ok());
  EXPECT_FALSE(CatoniHighProbabilityBound(0.2, -1.0, 10.0, 100, 0.05).ok());
}

TEST(CatoniHighProbabilityBoundTest, MonotoneInAllArguments) {
  const double base = CatoniHighProbabilityBound(0.2, 1.0, 10.0, 100, 0.05).value();
  // Larger empirical risk -> larger bound.
  EXPECT_GT(CatoniHighProbabilityBound(0.3, 1.0, 10.0, 100, 0.05).value(), base);
  // Larger KL -> larger bound.
  EXPECT_GT(CatoniHighProbabilityBound(0.2, 2.0, 10.0, 100, 0.05).value(), base);
  // Smaller delta (more confidence) -> larger bound.
  EXPECT_GT(CatoniHighProbabilityBound(0.2, 1.0, 10.0, 100, 0.01).value(), base);
  // More data -> smaller bound.
  EXPECT_LT(CatoniHighProbabilityBound(0.2, 1.0, 10.0, 1000, 0.05).value(), base);
}

TEST(CatoniHighProbabilityBoundTest, ClampedAtOne) {
  // Tiny n, huge KL: the bound is vacuous and must clamp at 1.
  EXPECT_EQ(CatoniHighProbabilityBound(0.9, 100.0, 5.0, 5, 0.01).value(), 1.0);
}

TEST(CatoniHighProbabilityBoundTest, ExceedsEmpiricalRisk) {
  // A generalization bound can never undercut the empirical term.
  for (double risk : {0.0, 0.1, 0.4}) {
    const double bound = CatoniHighProbabilityBound(risk, 0.5, 20.0, 200, 0.05).value();
    EXPECT_GE(bound, risk);
  }
}

TEST(CatoniExpectationBoundTest, BasicAndValidation) {
  const double bound = CatoniExpectationBound(0.3, 10.0, 100).value();
  EXPECT_GT(bound, 0.29);
  EXPECT_LE(bound, 1.0);
  EXPECT_FALSE(CatoniExpectationBound(-0.1, 10.0, 100).ok());
  EXPECT_FALSE(CatoniExpectationBound(0.3, 0.0, 100).ok());
}

TEST(McAllesterBoundTest, ShrinkWithN) {
  const double small_n = McAllesterBound(0.2, 1.0, 100, 0.05).value();
  const double large_n = McAllesterBound(0.2, 1.0, 10000, 0.05).value();
  EXPECT_LT(large_n, small_n);
  EXPECT_GT(small_n, 0.2);
  EXPECT_FALSE(McAllesterBound(0.2, 1.0, 0, 0.05).ok());
}

TEST(PacBayesObjectiveTest, GibbsAttainsTheClosedFormMinimum) {
  // Lemma 3.2 exactly: F(Gibbs) == -(1/lambda) ln E_pi e^{-lambda R}.
  std::vector<double> risks = {0.1, 0.35, 0.2, 0.6, 0.05};
  std::vector<double> prior = {0.2, 0.2, 0.2, 0.2, 0.2};
  for (double lambda : {0.5, 3.0, 25.0}) {
    auto gibbs = GibbsPosteriorFromRisks(risks, prior, lambda).value();
    const double at_gibbs = PacBayesObjective(gibbs, risks, prior, lambda).value();
    const double minimum = PacBayesObjectiveMinimum(risks, prior, lambda).value();
    EXPECT_NEAR(at_gibbs, minimum, 1e-10) << "lambda=" << lambda;
  }
}

TEST(PacBayesObjectiveTest, GibbsBeatsAllPerturbations) {
  // Lemma 3.2 as an optimality sweep: every alternative posterior scores
  // strictly worse.
  std::vector<double> risks = {0.1, 0.35, 0.2, 0.6, 0.05};
  std::vector<double> prior = {0.1, 0.3, 0.2, 0.2, 0.2};
  const double lambda = 8.0;
  auto gibbs = GibbsPosteriorFromRisks(risks, prior, lambda).value();
  const double at_gibbs = PacBayesObjective(gibbs, risks, prior, lambda).value();

  // Alternative 1: the prior itself.
  EXPECT_GT(PacBayesObjective(prior, risks, prior, lambda).value(), at_gibbs);
  // Alternative 2: uniform.
  std::vector<double> uniform(risks.size(), 0.2);
  EXPECT_GT(PacBayesObjective(uniform, risks, prior, lambda).value(), at_gibbs);
  // Alternative 3: point mass on the ERM (KL finite since prior > 0).
  std::vector<double> erm_point = {0.0, 0.0, 0.0, 0.0, 1.0};
  EXPECT_GT(PacBayesObjective(erm_point, risks, prior, lambda).value(), at_gibbs);
  // Alternative 4: tempered Gibbs at the wrong temperature.
  auto wrong_temp = GibbsPosteriorFromRisks(risks, prior, 2.0 * lambda).value();
  EXPECT_GT(PacBayesObjective(wrong_temp, risks, prior, lambda).value(), at_gibbs);
  // Alternative 5: mixtures toward uniform.
  for (double w : {0.1, 0.5, 0.9}) {
    std::vector<double> mix(risks.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
      mix[i] = (1.0 - w) * gibbs[i] + w * uniform[i];
    }
    EXPECT_GE(PacBayesObjective(mix, risks, prior, lambda).value(), at_gibbs - 1e-12);
  }
}

TEST(PacBayesObjectiveTest, InfiniteWhenOutsidePriorSupport) {
  std::vector<double> risks = {0.1, 0.2};
  std::vector<double> prior = {1.0, 0.0};
  std::vector<double> posterior = {0.5, 0.5};
  EXPECT_TRUE(std::isinf(PacBayesObjective(posterior, risks, prior, 1.0).value()));
}

TEST(PacBayesObjectiveTest, Validation) {
  EXPECT_FALSE(PacBayesObjective({}, {}, {}, 1.0).ok());
  EXPECT_FALSE(PacBayesObjective({1.0}, {0.1, 0.2}, {0.5, 0.5}, 1.0).ok());
  EXPECT_FALSE(PacBayesObjective({0.5, 0.5}, {0.1, 0.2}, {0.5, 0.5}, 0.0).ok());
  EXPECT_FALSE(PacBayesObjective({0.6, 0.6}, {0.1, 0.2}, {0.5, 0.5}, 1.0).ok());
}

TEST(PacBayesObjectiveMinimumTest, LimitBehaviour) {
  std::vector<double> risks = {0.1, 0.5};
  std::vector<double> prior = {0.5, 0.5};
  // Small lambda: minimum tends to E_prior[R] (posterior ~ prior).
  EXPECT_NEAR(PacBayesObjectiveMinimum(risks, prior, 1e-6).value(), 0.3, 1e-4);
  // Large lambda: minimum tends to min risk.
  EXPECT_NEAR(PacBayesObjectiveMinimum(risks, prior, 1e6).value(), 0.1, 1e-4);
}

TEST(SuggestLambdaTest, ScalesWithSqrtN) {
  const double l1 = SuggestLambda(100, 1.0);
  const double l2 = SuggestLambda(400, 1.0);
  EXPECT_NEAR(l2 / l1, 2.0, 1e-9);
  // Clamped into [1, n].
  EXPECT_GE(SuggestLambda(100, 1e-30), 1.0);
  EXPECT_LE(SuggestLambda(4, 100.0), 4.0);
}

}  // namespace
}  // namespace dplearn
