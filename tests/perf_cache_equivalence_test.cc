/// Differential tests for the src/perf hot-path layer (DESIGN.md §10): the
/// cached/batched fast paths must be BIT-identical to the slow paths they
/// replace, across seeds, thread counts (inline and an 8-worker pool), and
/// under injected faults. Every assertion here is memcmp-level equality —
/// "close" is not a pass; the determinism contract (PR 2) says enabling a
/// perf feature is invisible to every downstream number.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "core/lambda_selection.h"
#include "core/learning_channel.h"
#include "core/private_erm.h"
#include "learning/generators.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "mechanisms/exponential.h"
#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"
#include "perf/risk_profile_cache.h"
#include "robustness/failpoint.h"
#include "sampling/alias_sampler.h"
#include "sampling/distributions.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  }
}

Dataset MakeData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return BernoulliMeanTask::Create(0.4).value().Sample(n, &rng).value();
}

/// RAII: pin the cache-enabled flag for one test and restore it after.
class ScopedCacheEnabled {
 public:
  explicit ScopedCacheEnabled(bool enabled) : prev_(perf::RiskCacheEnabled()) {
    perf::SetRiskCacheEnabled(enabled);
    perf::RiskProfileCache::Global().Clear();
  }
  ~ScopedCacheEnabled() { perf::SetRiskCacheEnabled(prev_); }

 private:
  bool prev_;
};

TEST(RiskProfileCacheTest, CachedProfileIsBitIdenticalToDirectComputation) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 51).value();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Dataset data = MakeData(200, seed);
    auto direct = EmpiricalRiskProfile(loss, hclass.thetas(), data).value();

    ScopedCacheEnabled cache_on(true);
    auto miss = perf::CachedRiskProfile(loss, hclass.thetas(), data).value();
    auto hit = perf::CachedRiskProfile(loss, hclass.thetas(), data).value();
    ExpectBitEqual(direct, miss);
    ExpectBitEqual(direct, hit);
  }
  // 5 distinct datasets: 5 misses, 5 hits.
  ScopedCacheEnabled cache_on(true);
  Dataset data = MakeData(100, 99);
  ClippedSquaredLoss loss2(1.0);
  (void)perf::CachedRiskProfile(loss2, hclass.thetas(), data).value();
  (void)perf::CachedRiskProfile(loss2, hclass.thetas(), data).value();
  const perf::RiskProfileCache::Stats stats = perf::RiskProfileCache::Global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(RiskProfileCacheTest, EvictionBoundsSizeAndKeepsServingCorrectValues) {
  perf::RiskProfileCache cache(/*capacity=*/2);
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Dataset data = MakeData(50, seed);
    auto got = cache.GetOrCompute(loss, hclass.thetas(), data).value();
    ExpectBitEqual(EmpiricalRiskProfile(loss, hclass.thetas(), data).value(), got);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The evicted oldest dataset recomputes correctly (a miss, not a wrong hit).
  Dataset data = MakeData(50, 1);
  auto again = cache.GetOrCompute(loss, hclass.thetas(), data).value();
  ExpectBitEqual(EmpiricalRiskProfile(loss, hclass.thetas(), data).value(), again);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RiskProfileCacheTest, HitEntrySurvivesTheNextEviction) {
  // Second chance: A is older than B, but A was hit since it was filled,
  // so the insert of C keeps A once more and evicts B. A FIFO cache would
  // evict A.
  perf::RiskProfileCache cache(/*capacity=*/2);
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  const Dataset a = MakeData(50, 1);
  const Dataset b = MakeData(50, 2);
  const Dataset c = MakeData(50, 3);
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, a).ok());
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, b).ok());
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, a).ok());  // the hit that marks A
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, c).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  ExpectBitEqual(EmpiricalRiskProfile(loss, hclass.thetas(), a).value(),
                 cache.GetOrCompute(loss, hclass, a).value());
  EXPECT_EQ(cache.stats().hits, 2u) << "A was evicted";
  EXPECT_EQ(cache.stats().misses, 3u);
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, b).ok());
  EXPECT_EQ(cache.stats().misses, 4u) << "B was kept";
}

TEST(PerfEquivalenceTest, GibbsPosteriorBitIdenticalWithCacheOnAndOff) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101).value();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Dataset data = MakeData(300, seed);
    for (double lambda : {0.5, 5.0, 50.0}) {
      auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
      std::vector<double> off_posterior;
      std::vector<double> on_posterior;
      std::size_t off_draw;
      std::size_t on_draw;
      {
        ScopedCacheEnabled cache_off(false);
        Rng rng(seed * 1000 + 7);
        off_posterior = gibbs.Posterior(data).value();
        off_draw = gibbs.Sample(data, &rng).value();
      }
      {
        ScopedCacheEnabled cache_on(true);
        Rng rng(seed * 1000 + 7);
        on_posterior = gibbs.Posterior(data).value();
        on_draw = gibbs.Sample(data, &rng).value();
      }
      ExpectBitEqual(off_posterior, on_posterior);
      EXPECT_EQ(off_draw, on_draw);
    }
  }
}

struct TrialOutput {
  std::size_t draw = 0;
  std::vector<double> posterior;
};

/// Runs a Gibbs λ sweep as parallel Monte-Carlo trials and returns every
/// trial's posterior + draw. Used at thread counts 1 and 8, cache on and
/// off: all four result sets must match bitwise.
std::vector<TrialOutput> RunSweepTrials(parallel::ThreadPool* pool, bool cache_enabled,
                                        std::uint64_t seed) {
  ScopedCacheEnabled cache(cache_enabled);
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 51).value();
  Dataset data = MakeData(200, 11);
  Rng base(seed);
  parallel::ParallelTrialRunner runner(pool);
  return runner.MapTrials<TrialOutput>(16, &base, [&](std::size_t t, Rng& rng) {
    const double lambda = 1.0 + static_cast<double>(t % 4) * 5.0;
    auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
    TrialOutput out;
    out.posterior = gibbs.Posterior(data).value();
    out.draw = gibbs.Sample(data, &rng).value();
    return out;
  });
}

TEST(PerfEquivalenceTest, SweepBitIdenticalAcrossThreadCountsAndCacheModes) {
  // Thread count 1 = inline runner; thread count 8 = explicit local pool
  // (the container's global pool may be null on a 1-core machine, which is
  // exactly why the 8-way half must not depend on it).
  const std::uint64_t seed = 42;
  std::vector<TrialOutput> inline_off = RunSweepTrials(nullptr, false, seed);
  std::vector<TrialOutput> inline_on = RunSweepTrials(nullptr, true, seed);
  parallel::ThreadPool pool(8);
  std::vector<TrialOutput> pooled_off = RunSweepTrials(&pool, false, seed);
  std::vector<TrialOutput> pooled_on = RunSweepTrials(&pool, true, seed);

  ASSERT_EQ(inline_off.size(), 16u);
  for (std::size_t t = 0; t < inline_off.size(); ++t) {
    EXPECT_EQ(inline_off[t].draw, inline_on[t].draw);
    EXPECT_EQ(inline_off[t].draw, pooled_off[t].draw);
    EXPECT_EQ(inline_off[t].draw, pooled_on[t].draw);
    ExpectBitEqual(inline_off[t].posterior, inline_on[t].posterior);
    ExpectBitEqual(inline_off[t].posterior, pooled_off[t].posterior);
    ExpectBitEqual(inline_off[t].posterior, pooled_on[t].posterior);
  }
  // The 16 concurrent trials over one (loss, Θ, Ẑ) hit the shared cache.
  ScopedCacheEnabled probe(true);
  std::vector<TrialOutput> warm = RunSweepTrials(&pool, true, seed);
  (void)warm;
}

TEST(PerfEquivalenceTest, GibbsSampleBatchMatchesLoopAndRngStream) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 41).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 8.0).value();
  Dataset data = MakeData(150, 5);
  ScopedCacheEnabled cache_off(false);

  for (std::uint64_t seed : {3u, 17u, 255u}) {
    Rng loop_rng(seed);
    std::vector<std::size_t> loop_draws;
    for (int j = 0; j < 32; ++j) {
      loop_draws.push_back(gibbs.Sample(data, &loop_rng).value());
    }
    Rng batch_rng(seed);
    std::vector<std::size_t> batch_draws;
    ASSERT_TRUE(gibbs.SampleBatch(data, &batch_rng, 32, &batch_draws).ok());
    EXPECT_EQ(loop_draws, batch_draws);
    // Both consumers must leave the generator at the same stream position.
    for (int probe = 0; probe < 4; ++probe) {
      EXPECT_EQ(loop_rng.NextUint64(), batch_rng.NextUint64());
    }
  }
}

ExponentialMechanism MakeRiskMechanism(const LossFunction* loss,
                                       const FiniteHypothesisClass& hclass) {
  std::vector<Vector> thetas = hclass.thetas();
  QualityFn quality = [loss, thetas](const Dataset& data, std::size_t u) {
    auto risk = EmpiricalRisk(*loss, thetas[u], data);
    return risk.ok() ? -risk.value() : 0.0;
  };
  return ExponentialMechanism::CreateUniform(std::move(quality), hclass.size(), 4.0, 0.01)
      .value();
}

TEST(PerfEquivalenceTest, ExponentialSampleBatchMatchesLoopAndRngStream) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 31).value();
  const ExponentialMechanism mechanism = MakeRiskMechanism(&loss, hclass);
  Dataset data = MakeData(100, 9);

  for (std::uint64_t seed : {1u, 77u}) {
    Rng loop_rng(seed);
    std::vector<std::size_t> loop_draws;
    for (int j = 0; j < 24; ++j) {
      loop_draws.push_back(mechanism.Sample(data, &loop_rng).value());
    }
    Rng batch_rng(seed);
    std::vector<std::size_t> batch_draws;
    ASSERT_TRUE(mechanism.SampleBatch(data, &batch_rng, 24, &batch_draws).ok());
    EXPECT_EQ(loop_draws, batch_draws);
    for (int probe = 0; probe < 4; ++probe) {
      EXPECT_EQ(loop_rng.NextUint64(), batch_rng.NextUint64());
    }
  }
}

TEST(PerfEquivalenceTest, ExponentialBatchFaultsAtTheSameDrawIndexAsTheLoop) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  const ExponentialMechanism mechanism = MakeRiskMechanism(&loss, hclass);
  Dataset data = MakeData(80, 13);

  // The loop: with the fail point firing on every 3rd crossing, draws at
  // 0-based indices 2, 5, ... fail.
  std::size_t loop_first_fault = 0;
  std::vector<std::size_t> loop_draws;
  {
    robustness::ScopedFailPoint fp("mechanism.sample", "every:3");
    Rng rng(21);
    for (std::size_t j = 0; j < 8; ++j) {
      auto draw = mechanism.Sample(data, &rng);
      if (!draw.ok()) {
        loop_first_fault = j;
        break;
      }
      loop_draws.push_back(draw.value());
    }
  }
  ASSERT_EQ(loop_first_fault, 2u);

  // The batch must cross the fail point once PER DRAW, so the same config
  // aborts it at the same draw index, with the earlier draws delivered.
  {
    robustness::ScopedFailPoint fp("mechanism.sample", "every:3");
    Rng rng(21);
    std::vector<std::size_t> batch_draws;
    const Status status = mechanism.SampleBatch(data, &rng, 8, &batch_draws);
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(robustness::IsInjectedFault(status));
    EXPECT_EQ(batch_draws.size(), loop_first_fault);
    EXPECT_EQ(batch_draws, loop_draws);
  }
}

TEST(PerfEquivalenceTest, LambdaSelectionBitIdenticalWithCacheOnAndOff) {
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 41).value();
  LambdaSelectionOptions options;
  options.lambda_grid = {1.0, 5.0, 20.0, 80.0};

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Dataset data = MakeData(240, seed * 31);
    PrivateLambdaSelectionResult off_result;
    PrivateLambdaSelectionResult on_result;
    {
      ScopedCacheEnabled cache_off(false);
      Rng rng(seed);
      off_result = SelectLambdaAndTrain(loss, hclass, data, options, &rng).value();
    }
    {
      ScopedCacheEnabled cache_on(true);
      Rng rng(seed);
      on_result = SelectLambdaAndTrain(loss, hclass, data, options, &rng).value();
    }
    EXPECT_EQ(off_result.selected_index, on_result.selected_index);
    EXPECT_EQ(off_result.lambda, on_result.lambda);
    EXPECT_EQ(off_result.total_epsilon, on_result.total_epsilon);
    ExpectBitEqual(off_result.theta, on_result.theta);
  }
}

TEST(PerfEquivalenceTest, LearningChannelBitIdenticalWithCacheOnAndOff) {
  auto task = BernoulliMeanTask::Create(0.4).value();
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();

  GibbsLearningChannel off_channel = [&] {
    ScopedCacheEnabled cache_off(false);
    return BuildBernoulliGibbsChannel(task, 40, loss, hclass, hclass.UniformPrior(), 5.0)
        .value();
  }();
  GibbsLearningChannel on_channel = [&] {
    ScopedCacheEnabled cache_on(true);
    // A λ sweep over the same task: the second build's risk rows are all
    // cache hits, and both λ's outputs must match the uncached build.
    auto first =
        BuildBernoulliGibbsChannel(task, 40, loss, hclass, hclass.UniformPrior(), 2.0);
    EXPECT_TRUE(first.ok());
    return BuildBernoulliGibbsChannel(task, 40, loss, hclass, hclass.UniformPrior(), 5.0)
        .value();
  }();

  ASSERT_EQ(off_channel.risk_matrix.size(), on_channel.risk_matrix.size());
  for (std::size_t k = 0; k < off_channel.risk_matrix.size(); ++k) {
    ExpectBitEqual(off_channel.risk_matrix[k], on_channel.risk_matrix[k]);
  }
  ASSERT_EQ(off_channel.channel.num_inputs(), on_channel.channel.num_inputs());
  for (std::size_t k = 0; k < off_channel.channel.num_inputs(); ++k) {
    for (std::size_t i = 0; i < off_channel.channel.num_outputs(); ++i) {
      EXPECT_EQ(off_channel.channel.TransitionProbability(k, i),
                on_channel.channel.TransitionProbability(k, i));
    }
  }
}

TEST(PerfEquivalenceTest, OutputPerturbationSplitMatchesMonolithicCall) {
  LogisticLoss loss(4.0);
  Rng data_rng(33);
  Dataset data;
  for (int i = 0; i < 120; ++i) {
    const double x = data_rng.NextDouble() * 2.0 - 1.0;
    data.Add(Example{Vector{x}, x > 0.0 ? 1.0 : -1.0});
  }
  for (double eps : {0.2, 1.0, 3.0}) {
    PrivateErmOptions options;
    options.epsilon = eps;
    Rng full_rng(71);
    auto full = OutputPerturbationErm(loss, data, options, &full_rng).value();
    Rng split_rng(71);
    auto erm = SolveNonPrivateErm(loss, data, options).value();
    auto split =
        ReleaseOutputPerturbation(erm, data.size(), data.FeatureDim(), options, &split_rng)
            .value();
    ExpectBitEqual(full.theta, split.theta);
    EXPECT_EQ(full.epsilon_spent, split.epsilon_spent);
    ExpectBitEqual(full.solver_result.theta, split.solver_result.theta);
  }
}

TEST(PerfEquivalenceTest, ScratchAndBatchSamplersMatchPlainOverloads) {
  std::vector<double> log_w(64);
  for (std::size_t i = 0; i < log_w.size(); ++i) {
    log_w[i] = -0.03 * static_cast<double>(i);
  }
  // Scratch overload vs plain overload.
  Rng plain_rng(4);
  Rng scratch_rng(4);
  std::vector<double> scratch;
  for (int j = 0; j < 50; ++j) {
    EXPECT_EQ(SampleFromLogWeights(&plain_rng, log_w).value(),
              SampleFromLogWeights(&scratch_rng, log_w, &scratch).value());
  }
  EXPECT_EQ(plain_rng.NextUint64(), scratch_rng.NextUint64());

  // Batch vs loop.
  Rng loop_rng(9);
  std::vector<std::size_t> loop_draws;
  for (int j = 0; j < 40; ++j) {
    loop_draws.push_back(SampleFromLogWeights(&loop_rng, log_w).value());
  }
  Rng batch_rng(9);
  std::vector<std::size_t> batch_draws;
  ASSERT_TRUE(SampleFromLogWeightsBatch(&batch_rng, log_w, 40, &batch_draws).ok());
  EXPECT_EQ(loop_draws, batch_draws);
  EXPECT_EQ(loop_rng.NextUint64(), batch_rng.NextUint64());

  // Alias batch vs loop.
  std::vector<double> p(32, 1.0 / 32.0);
  auto sampler = AliasSampler::Create(p).value();
  Rng alias_loop_rng(6);
  std::vector<std::size_t> alias_loop;
  for (int j = 0; j < 100; ++j) alias_loop.push_back(sampler.Sample(&alias_loop_rng));
  Rng alias_batch_rng(6);
  std::vector<std::size_t> alias_batch;
  sampler.SampleBatch(&alias_batch_rng, 100, &alias_batch);
  EXPECT_EQ(alias_loop, alias_batch);
  EXPECT_EQ(alias_loop_rng.NextUint64(), alias_batch_rng.NextUint64());

  // Blocked uniforms vs per-call uniforms.
  Rng a(12);
  Rng b(12);
  std::vector<double> block(33);
  a.NextDoubleBatch(block.data(), block.size());
  for (double v : block) EXPECT_EQ(v, b.NextDouble());
  std::vector<double> open_block(17);
  a.NextDoubleOpenBatch(open_block.data(), open_block.size());
  for (double v : open_block) EXPECT_EQ(v, b.NextDoubleOpen());
}

// --------------------------------------------------------------------------
// The dataset generation counter keeps in-place mutation from memoizing
// torn entries (DESIGN.md §10).

/// A custom loss that bumps a Dataset's generation counter mid-evaluation —
/// the deterministic stand-in for a concurrent SetLabel walk racing a cache
/// fill. SetLabel rewrites the label it already has, so the CONTENT (and
/// hash) are unchanged; only generation() moves.
class GenerationBumpingLoss final : public LossFunction {
 public:
  GenerationBumpingLoss(Dataset* target, ClippedSquaredLoss inner)
      : target_(target), inner_(std::move(inner)) {}

  double Loss(const Vector& theta, const Example& z) const override {
    if (armed_ && target_ != nullptr) {
      armed_ = false;
      (void)target_->SetLabel(0, target_->at(0).label);
    }
    return inner_.Loss(theta, z);
  }
  double UpperBound() const override { return inner_.UpperBound(); }
  std::string Name() const override { return "generation_bumping"; }
  void Arm() { armed_ = true; }

 private:
  Dataset* target_;
  ClippedSquaredLoss inner_;
  mutable bool armed_ = false;
};

TEST(RiskProfileCacheTest, GenerationGuardRefusesToMemoizeTornFills) {
  perf::RiskProfileCache cache(/*capacity=*/8);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  Dataset data = MakeData(20, 17);
  GenerationBumpingLoss loss(&data, ClippedSquaredLoss(1.0));

  // Armed fill: generation moves between the hash snapshot and the insert,
  // so the fresh risks are served but NOT memoized.
  loss.Arm();
  auto torn = cache.GetOrCompute(loss, hclass.thetas(), data).value();
  EXPECT_EQ(cache.stats().mutation_skips, 1u);
  EXPECT_EQ(cache.size(), 0u);
  ExpectBitEqual(EmpiricalRiskProfile(loss, hclass.thetas(), data).value(), torn);

  // Disarmed: the same lookup is a clean miss that memoizes, then a hit.
  auto clean = cache.GetOrCompute(loss, hclass.thetas(), data).value();
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.GetOrCompute(loss, hclass.thetas(), data).value();
  EXPECT_EQ(cache.stats().hits, 1u);
  ExpectBitEqual(clean, hit);
  ExpectBitEqual(torn, clean);
}

TEST(RiskProfileCacheTest, SequentialSetLabelAlwaysMissesTheStaleEntry) {
  // The latent hazard this PR closes, in its sequential form: an in-place
  // SetLabel between two lookups must change the key (content hash), so the
  // second lookup can NEVER be served the pre-mutation profile.
  perf::RiskProfileCache cache(/*capacity=*/8);
  ClippedSquaredLoss loss(1.0);
  auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  Dataset data = MakeData(20, 19);

  auto before = cache.GetOrCompute(loss, hclass.thetas(), data).value();
  const std::uint64_t generation_before = data.generation();
  ASSERT_TRUE(data.SetLabel(0, 1.0 - data.at(0).label).ok());
  EXPECT_GT(data.generation(), generation_before);
  auto after = cache.GetOrCompute(loss, hclass.thetas(), data).value();
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  ExpectBitEqual(EmpiricalRiskProfile(loss, hclass.thetas(), data).value(), after);
}

// Identity (DESIGN.md §10.1): a class id or dataset generation that an
// entry has verified proves its half of the key; anything else is
// compared bitwise. Both paths must serve exactly the profile a fresh
// compute returns, and neither may outlive a content change.

TEST(RiskProfileCacheTest, CopiesAndEqualDatasetsBuiltApartHitOneEntry) {
  perf::RiskProfileCache cache(/*capacity=*/8);
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  Dataset a = MakeData(30, 23);
  const std::vector<double> expected = EmpiricalRiskProfile(loss, hclass.thetas(), a).value();

  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, a).value());  // fills
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, a).value());  // identity
  const Dataset copy = a;
  ASSERT_EQ(copy.generation(), a.generation());
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, copy).value());
  // Equal examples under a new generation: the bitwise path, which then
  // records that generation.
  const Dataset apart(a.examples());
  ASSERT_NE(apart.generation(), a.generation());
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, apart).value());
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, apart).value());
  // Θ built apart, and Θ as a bare list: both compare Θ bitwise.
  const auto twin = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  ExpectBitEqual(expected, cache.GetOrCompute(loss, twin, apart).value());
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass.thetas(), copy).value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 6u);
  EXPECT_EQ(cache.size(), 1u);

  // A content-changing SetLabel misses, and the copy still hits.
  ASSERT_TRUE(a.SetLabel(0, 1.0 - a.at(0).label).ok());
  ExpectBitEqual(EmpiricalRiskProfile(loss, hclass.thetas(), a).value(),
                 cache.GetOrCompute(loss, hclass, a).value());
  EXPECT_EQ(cache.stats().misses, 2u);
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, copy).value());
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(RiskProfileCacheTest, MovedFromDatasetRefilledNeverGetsTheOldProfile) {
  perf::RiskProfileCache cache(/*capacity=*/8);
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  std::vector<Example> zeros(20, Example{Vector{1.0}, 0.0});
  std::vector<Example> ones(20, Example{Vector{1.0}, 1.0});
  Dataset source(zeros);
  const std::vector<double> old_profile = cache.GetOrCompute(loss, hclass, source).value();

  Dataset target(std::move(source));
  ExpectBitEqual(old_profile, cache.GetOrCompute(loss, hclass, target).value());
  // Left empty, the moved-from side is a fresh dataset: no profile at all.
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_FALSE(cache.GetOrCompute(loss, hclass, source).ok());
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from side is refilled.
  for (const Example& z : ones) source.Add(z);
  const std::vector<double> expected = EmpiricalRiskProfile(loss, hclass.thetas(), source).value();
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, source).value());

  // The same through move assignment.
  Dataset assigned;
  assigned = std::move(target);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_FALSE(cache.GetOrCompute(loss, hclass, target).ok());
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from side is refilled.
  for (const Example& z : ones) target.Add(z);
  ExpectBitEqual(expected, cache.GetOrCompute(loss, hclass, target).value());
  ExpectBitEqual(old_profile, cache.GetOrCompute(loss, hclass, assigned).value());
  // Misses: the two fills and the two empty lookups.
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

}  // namespace
}  // namespace dplearn
