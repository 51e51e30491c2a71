/// Regression tests pinning bugs found (and fixed) during development.
/// Each test reproduces the original failure condition; if it ever fires
/// again, the header comment says what broke last time.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>
#include "core/learning_channel.h"
#include "core/pac_bayes.h"
#include "core/regularized_objective.h"
#include "infotheory/mutual_information.h"
#include "learning/dataset.h"
#include "learning/generators.h"
#include "mechanisms/exponential.h"
#include "sampling/alias_sampler.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

// ---------------------------------------------------------------------------
// Bug 1 (found by examples/paper_walkthrough): MutualInformation computed
// log(pxy / (px*py)); for subnormal cells px*py underflowed to 0 and the
// MI came out +inf, which propagated into MinimizeRegularizedObjective
// after ~300 alternating-minimization iterations. Fixed by the
// log-difference form.

TEST(RegressionTest, MutualInformationFiniteOnSubnormalCells) {
  // A joint with one subnormal cell: marginals ~1e-320, product underflows.
  const double tiny = 1e-320;
  std::vector<double> joint = {tiny, 0.0, 0.0, 1.0 - tiny};
  auto j = JointDistribution::Create(2, 2, joint).value();
  const double mi = j.MutualInformation();
  EXPECT_TRUE(std::isfinite(mi));
  EXPECT_GE(mi, 0.0);
}

TEST(RegressionTest, AlternatingMinimizationStaysFiniteToConvergence) {
  // The original repro: p=0.35, n=10, |Theta|=21, lambda=12 ran ~338
  // iterations into subnormal prior mass before blowing up.
  auto task = BernoulliMeanTask::Create(0.35).value();
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  auto channel = BuildBernoulliGibbsChannel(task, 10, loss, hclass,
                                            hclass.UniformPrior(), 12.0)
                     .value();
  auto optimum =
      MinimizeRegularizedObjective(channel.input_marginal, channel.risk_matrix, 12.0)
          .value();
  EXPECT_TRUE(std::isfinite(optimum.objective));
  EXPECT_TRUE(optimum.converged);
  EXPECT_GT(optimum.objective, 0.0);
  EXPECT_LT(optimum.objective, 1.0);
}

// ---------------------------------------------------------------------------
// Bug 2 (found by exp_exponential_dp's audit): the rank-balance median
// quality q(x,u) = -|#below - #above| was first shipped with a claimed
// sensitivity of 1; replacing one record can move BOTH counts, so the
// true sensitivity is 2 and the audit measured eps* up to 1.85x the
// claimed guarantee. Pin the correct sensitivity with a direct
// measurement.

TEST(RegressionTest, RankBalanceQualityHasSensitivityTwo) {
  auto quality = [](const Dataset& data, std::size_t u) {
    double below = 0.0;
    double above = 0.0;
    for (const Example& z : data.examples()) {
      if (z.label < static_cast<double>(u)) below += 1.0;
      if (z.label > static_cast<double>(u)) above += 1.0;
    }
    return -std::fabs(below - above);
  };
  // Candidate u=1 on base {0,0}: below=2, above=0, q=-2. Swapping one
  // 0-record for a 2-record gives below=1, above=1, q=0 — the quality
  // moved by 2 from ONE replacement.
  Dataset base;
  base.Add(Example{Vector{1.0}, 0.0});
  base.Add(Example{Vector{1.0}, 0.0});
  Dataset swapped = base.ReplaceExample(0, Example{Vector{1.0}, 2.0}).value();
  const double change = std::fabs(quality(base, 1) - quality(swapped, 1));
  EXPECT_EQ(change, 2.0);  // NOT 1 — the original claim
}

TEST(RegressionTest, ExponentialMechanismWithCorrectedSensitivityPasses) {
  // The end-to-end pin: with Dq=2 the exhaustive audit stays within
  // 2*eps*Dq on the median workload shape.
  auto quality = [](const Dataset& data, std::size_t u) {
    double below = 0.0;
    double above = 0.0;
    for (const Example& z : data.examples()) {
      if (z.label < static_cast<double>(u)) below += 1.0;
      if (z.label > static_cast<double>(u)) above += 1.0;
    }
    return -std::fabs(below - above);
  };
  const std::size_t candidates = 5;
  const double eps = 1.0;
  auto mechanism =
      ExponentialMechanism::CreateUniform(quality, candidates, eps, 2.0).value();
  Dataset base;
  for (double v : {0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0}) {
    base.Add(Example{Vector{1.0}, v});
  }
  std::vector<Example> domain;
  for (std::size_t v = 0; v < candidates; ++v) {
    domain.push_back(Example{Vector{1.0}, static_cast<double>(v)});
  }
  auto p_base = mechanism.OutputDistribution(base).value();
  double max_ratio = 0.0;
  for (const Dataset& nb : EnumerateNeighbors(base, domain)) {
    auto p_nb = mechanism.OutputDistribution(nb).value();
    for (std::size_t u = 0; u < candidates; ++u) {
      max_ratio = std::max(max_ratio, std::fabs(std::log(p_base[u] / p_nb[u])));
    }
  }
  EXPECT_LE(max_ratio, mechanism.PrivacyGuaranteeEpsilon() + 1e-12);
  // And the old (wrong) claim would indeed have been violated:
  EXPECT_GT(max_ratio, 2.0 * eps * 1.0);
}

// ---------------------------------------------------------------------------
// Guard: the alias sampler's rounding-slack path (u lands past the last
// cumulative boundary) must return a valid index, including for
// distributions whose mass barely misses 1 within tolerance.

TEST(RegressionTest, AliasSamplerToleratesRoundingSlack) {
  std::vector<double> p = {1.0 / 3.0, 1.0 / 3.0, 1.0 - 2.0 / 3.0};
  auto sampler = AliasSampler::Create(p).value();
  Rng rng(42);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_LT(sampler.Sample(&rng), p.size());
  }
}

// ---------------------------------------------------------------------------
// Guard: Catoni bound degenerate regimes must clamp rather than produce
// NaN (expm1/log interplay at tiny and huge lambda/n ratios).

TEST(RegressionTest, CatoniBoundExtremeRegimesAreFinite) {
  for (double lambda : {1e-6, 1.0, 1e6}) {
    for (std::size_t n : {1u, 10u, 1000000u}) {
      auto bound = CatoniHighProbabilityBound(0.5, 1.0, lambda, n, 0.05);
      ASSERT_TRUE(bound.ok()) << lambda << " " << n;
      EXPECT_TRUE(std::isfinite(*bound));
      EXPECT_GE(*bound, 0.0);
      EXPECT_LE(*bound, 1.0);
    }
  }
}

}  // namespace
}  // namespace dplearn
