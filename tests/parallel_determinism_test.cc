/// Experiment-scale determinism gate: the exact pipelines the bench
/// binaries run (dataset resampling, mechanism releases, Gibbs draws,
/// risk profiles) must produce bit-identical scalars at every thread
/// count. CI runs the same assertion end-to-end on the built experiment
/// binaries (DPLEARN_THREADS=1 vs 8); this test pins the contract at the
/// library level so a violation is caught by `ctest` locally too.

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "mechanisms/laplace.h"
#include "mechanisms/sensitivity.h"
#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

template <typename T>
T Unwrap(StatusOr<T> value) {
  EXPECT_TRUE(value.ok()) << value.status().message();
  return std::move(value).value();
}

struct TrialResult {
  double laplace_release = 0.0;
  double empirical_mean = 0.0;
  std::size_t gibbs_index = 0;

  bool operator==(const TrialResult& other) const {
    // Bitwise comparison (operator== on doubles is exact; no tolerance).
    return laplace_release == other.laplace_release &&
           empirical_mean == other.empirical_mean && gibbs_index == other.gibbs_index;
  }
};

/// One Monte-Carlo trial of a representative experiment pipeline: resample
/// the dataset, release a Laplace-noised mean, and draw from the Gibbs
/// posterior — every stochastic stage the bench binaries exercise.
class PipelineFixture {
 public:
  PipelineFixture()
      : task_(Unwrap(BernoulliMeanTask::Create(0.4))),
        loss_(1.0),
        hclass_(Unwrap(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21))),
        gibbs_(Unwrap(GibbsEstimator::CreateUniform(&loss_, hclass_, 25.0))),
        query_(Unwrap(BoundedMeanQuery(0.0, 1.0, kN))),
        laplace_(Unwrap(LaplaceMechanism::Create(query_, 0.5))) {}

  TrialResult RunTrial(std::size_t, Rng& trial_rng) const {
    TrialResult out;
    Dataset data = Unwrap(task_.Sample(kN, &trial_rng));
    out.laplace_release = Unwrap(laplace_.Release(data, &trial_rng));
    double mean = 0.0;
    for (const Example& z : data.examples()) mean += z.label;
    out.empirical_mean = mean / static_cast<double>(kN);
    out.gibbs_index = Unwrap(gibbs_.Sample(data, &trial_rng));
    return out;
  }

  static constexpr std::size_t kN = 60;

 private:
  BernoulliMeanTask task_;
  ClippedSquaredLoss loss_;
  FiniteHypothesisClass hclass_;
  GibbsEstimator gibbs_;
  SensitiveQuery query_;
  LaplaceMechanism laplace_;
};

TEST(ParallelDeterminismTest, ExperimentPipelineBitIdenticalAcrossThreadCounts) {
  const std::size_t kTrials = 120;
  PipelineFixture fixture;
  auto body = [&fixture](std::size_t t, Rng& rng) { return fixture.RunTrial(t, rng); };

  Rng base_inline(909);
  parallel::ParallelTrialRunner inline_runner(nullptr);
  const std::vector<TrialResult> reference =
      inline_runner.MapTrials<TrialResult>(kTrials, &base_inline, body);

  for (std::size_t workers : {2u, 8u}) {
    parallel::ThreadPool pool(workers);
    parallel::ParallelTrialRunner runner(&pool);
    Rng base(909);
    const std::vector<TrialResult> got =
        runner.MapTrials<TrialResult>(kTrials, &base, body);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t t = 0; t < kTrials; ++t) {
      EXPECT_TRUE(got[t] == reference[t])
          << "trial " << t << " diverged with " << workers << " workers";
    }
  }
}

TEST(ParallelDeterminismTest, OrderedFoldOfPipelineScalarsIsBitIdentical) {
  // The experiment binaries reduce per-trial scalars with FP addition in
  // trial order. The folded sums — what lands in results/<id>.json — must
  // carry the same bits at every thread count.
  const std::size_t kTrials = 150;
  PipelineFixture fixture;
  auto body = [&fixture](std::size_t t, Rng& rng) {
    return fixture.RunTrial(t, rng).laplace_release;
  };
  auto fold = [](const std::vector<double>& values) {
    double acc = 0.0;
    for (double value : values) acc += value;
    return acc;
  };

  Rng base_inline(1717);
  parallel::ParallelTrialRunner inline_runner(nullptr);
  const double reference =
      fold(inline_runner.MapTrials<double>(kTrials, &base_inline, body));

  parallel::ThreadPool pool(8);
  parallel::ParallelTrialRunner runner(&pool);
  Rng base(1717);
  const double got = fold(runner.MapTrials<double>(kTrials, &base, body));
  EXPECT_EQ(got, reference);  // exact, not NEAR
}

TEST(ParallelDeterminismTest, RiskProfileParallelPathMatchesSerialDefinition) {
  // A profile big enough to cross the library's parallel threshold
  // (|Θ| × n >= 2^14) must still equal the per-hypothesis serial
  // definition exactly: parallelism is per-hypothesis, each inner sum
  // stays in its historical order.
  auto task = Unwrap(BernoulliMeanTask::Create(0.3));
  ClippedSquaredLoss loss(1.0);
  auto hclass = Unwrap(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 65));
  Rng rng(33);
  Dataset data = Unwrap(task.Sample(512, &rng));
  ASSERT_GE(hclass.size() * data.size(), static_cast<std::size_t>(1) << 14);

  const std::vector<double> profile =
      Unwrap(EmpiricalRiskProfile(loss, hclass.thetas(), data));
  ASSERT_EQ(profile.size(), hclass.size());
  for (std::size_t i = 0; i < hclass.size(); ++i) {
    const double serial = Unwrap(EmpiricalRisk(loss, hclass.at(i), data));
    EXPECT_EQ(profile[i], serial) << "hypothesis " << i;
  }
}

TEST(ParallelDeterminismTest, GibbsPosteriorUnchangedByParallelProfile) {
  // The Gibbs posterior is built on top of the (possibly parallel) risk
  // profile; its probabilities must not depend on the thread count either.
  // Two computations in one process share the same global pool, so this
  // asserts reproducibility; the cross-thread-count check is the profile
  // test above plus CI's DPLEARN_THREADS=1-vs-8 gate.
  auto task = Unwrap(BernoulliMeanTask::Create(0.45));
  ClippedSquaredLoss loss(1.0);
  auto hclass = Unwrap(FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 65));
  auto gibbs = Unwrap(GibbsEstimator::CreateUniform(&loss, hclass, 40.0));
  Rng rng(77);
  Dataset data = Unwrap(task.Sample(400, &rng));

  const std::vector<double> a = Unwrap(gibbs.Posterior(data));
  const std::vector<double> b = Unwrap(gibbs.Posterior(data));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace dplearn
