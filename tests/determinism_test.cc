/// Cross-module determinism: every randomized component must be a pure
/// function of its seed. Reproducibility is a stated library guarantee
/// (README), and the experiments' recorded numbers depend on it.

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "core/private_density.h"
#include "core/private_erm.h"
#include "learning/generators.h"
#include "mechanisms/exponential.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "mechanisms/subsample.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

TEST(DeterminismTest, TaskSamplingIsSeedDeterministic) {
  auto task = GaussianMixtureTask::Create({0.5, 0.2}, 0.7).value();
  Rng rng_a(99);
  Rng rng_b(99);
  EXPECT_EQ(task.Sample(50, &rng_a).value(), task.Sample(50, &rng_b).value());
}

TEST(DeterminismTest, LaplaceReleaseIsSeedDeterministic) {
  auto task = BernoulliMeanTask::Create(0.4).value();
  Rng data_rng(1);
  Dataset data = task.Sample(30, &data_rng).value();
  auto query = BoundedMeanQuery(0.0, 1.0, 30).value();
  auto mechanism = LaplaceMechanism::Create(query, 1.0).value();
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(mechanism.Release(data, &a).value(), mechanism.Release(data, &b).value());
  }
}

TEST(DeterminismTest, GibbsSamplingIsSeedDeterministic) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 10.0).value();
  auto task = BernoulliMeanTask::Create(0.3).value();
  Rng data_rng(2);
  Dataset data = task.Sample(40, &data_rng).value();
  Rng a(11);
  Rng b(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gibbs.Sample(data, &a).value(), gibbs.Sample(data, &b).value());
  }
}

TEST(DeterminismTest, PrivateErmIsSeedDeterministic) {
  auto task = GaussianMixtureTask::Create({0.4, 0.3}, 0.6).value();
  Rng data_rng(3);
  Dataset data = task.Sample(100, &data_rng).value();
  LogisticLoss loss(50.0);
  PrivateErmOptions options;
  options.epsilon = 1.0;
  options.l2_lambda = 0.1;
  options.solver.max_iters = 500;
  Rng a(13);
  Rng b(13);
  EXPECT_EQ(OutputPerturbationErm(loss, data, options, &a).value().theta,
            OutputPerturbationErm(loss, data, options, &b).value().theta);
  EXPECT_EQ(ObjectivePerturbationErm(loss, data, options, &a).value().theta,
            ObjectivePerturbationErm(loss, data, options, &b).value().theta);
}

TEST(DeterminismTest, DensityEstimatorsAreSeedDeterministic) {
  Dataset data;
  for (int i = 0; i < 40; ++i) data.Add(Example{Vector{1.0}, static_cast<double>(i % 3)});
  GibbsDensityOptions options;
  options.epsilon = 1.0;
  Rng a(17);
  Rng b(17);
  EXPECT_EQ(GibbsDensityEstimate(data, 3, options, &a).value().density,
            GibbsDensityEstimate(data, 3, options, &b).value().density);
  EXPECT_EQ(LaplaceHistogramEstimate(data, 3, 1.0, &a).value().density,
            LaplaceHistogramEstimate(data, 3, 1.0, &b).value().density);
  EXPECT_EQ(GeometricHistogramEstimate(data, 3, 1.0, &a).value().density,
            GeometricHistogramEstimate(data, 3, 1.0, &b).value().density);
}

TEST(DeterminismTest, SubsamplingIsSeedDeterministic) {
  Dataset data;
  for (int i = 0; i < 100; ++i) data.Add(Example{Vector{static_cast<double>(i)}, 0.0});
  Rng a(19);
  Rng b(19);
  EXPECT_EQ(PoissonSubsample(data, 0.3, &a).value(), PoissonSubsample(data, 0.3, &b).value());
}

TEST(DeterminismTest, DifferentSeedsGiveDifferentDraws) {
  // Sanity inverse: the seed actually matters.
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 41).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 3.0).value();
  auto task = BernoulliMeanTask::Create(0.5).value();
  Rng data_rng(4);
  Dataset data = task.Sample(20, &data_rng).value();
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (gibbs.Sample(data, &a).value() != gibbs.Sample(data, &b).value()) ++differences;
  }
  EXPECT_GT(differences, 10);
}

}  // namespace
}  // namespace dplearn
