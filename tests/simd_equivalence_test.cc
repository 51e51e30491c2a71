/// The scalar↔SIMD equivalence harness for src/simd (DESIGN.md §14). The
/// numerical contract under test is two-tiered:
///
///   * element-wise kernels (tilt, softmax row, Gumbel argmax) are
///     reorder-free — asserted BITWISE against the scalar formulas;
///   * reduction kernels (mean loss, LogSumExp) are sequential (bitwise)
///     below simd::kBlockedSumMinN and blocked above it — asserted within
///     the stated ULP bounds across seeds, losses, dimensions, thread
///     counts, and cache on/off;
///   * on each path every result is bitwise-deterministic, and the
///     risk-profile cache never serves one path's bits to the other.
///
/// The scalar side is a built-in loss's CustomTwin (custom_loss_twin.h):
/// the same formula without a KernelSpec(), so it runs the virtual loop.
///
/// The file also pins the numerical-edge bugfix sweep: NaN inputs are
/// rejected with typed Statuses instead of being laundered by Clamp or
/// silently losing Gumbel comparisons.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "core/learning_channel.h"
#include "learning/generators.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "mechanisms/exponential.h"
#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"
#include "perf/risk_profile_cache.h"
#include "sampling/distributions.h"
#include "sampling/rng.h"
#include "simd/kernels.h"
#include "util/math_util.h"

#include "custom_loss_twin.h"

namespace dplearn {
namespace {

/// ULP budgets of the contract. Small-n reductions are sequential and agree
/// with the scalar code to the last bit on builds without FP contraction;
/// the 4-ulp slack absorbs fused multiply-adds the compiler may legalize
/// differently per translation unit at higher -march levels (each
/// contraction shifts a product by <=1/2 ulp, and a dim-5 dot feeding a
/// 9-term sum stacks a few). Large-n blocked reductions differ from scalar
/// only by summation order of identical nonnegative terms, so the gap is
/// bounded by ~n·u relative — n/4 is a comfortable envelope (observed max
/// 62 ulps at n=500).
constexpr std::uint64_t kSmallNUlpBound = 4;
std::uint64_t ReductionUlpBound(std::size_t n) {
  return n < simd::kBlockedSumMinN ? kSmallNUlpBound
                                   : static_cast<std::uint64_t>(n) / 4;
}

std::int64_t OrderedDoubleBits(double x) {
  std::int64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  // Map the IEEE total order onto monotone signed integers.
  return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
}

std::uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;  // covers +0 vs -0 and equal infinities
  const std::uint64_t ua = static_cast<std::uint64_t>(OrderedDoubleBits(a));
  const std::uint64_t ub = static_cast<std::uint64_t>(OrderedDoubleBits(b));
  return ua >= ub ? ua - ub : ub - ua;
}

void ExpectUlpClose(const std::vector<double>& a, const std::vector<double>& b,
                    std::uint64_t max_ulp, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(UlpDistance(a[i], b[i]), max_ulp)
        << context << " entry " << i << ": " << a[i] << " vs " << b[i];
  }
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double))) << context;
  }
}

class ScopedCacheEnabled {
 public:
  explicit ScopedCacheEnabled(bool enabled) : prev_(perf::RiskCacheEnabled()) {
    perf::SetRiskCacheEnabled(enabled);
    perf::RiskProfileCache::Global().Clear();
  }
  ~ScopedCacheEnabled() {
    perf::SetRiskCacheEnabled(prev_);
    perf::RiskProfileCache::Global().Clear();
  }

 private:
  bool prev_;
};

Dataset MakeBernoulliData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return BernoulliMeanTask::Create(0.4).value().Sample(n, &rng).value();
}

Dataset MakeRegressionData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return LinearRegressionTask::Create({0.3, -0.2, 0.5, 0.1, -0.4}, 1.0, 0.1)
      .value()
      .Sample(n, &rng)
      .value();
}

std::vector<Vector> ScalarThetas(std::size_t m) {
  return FiniteHypothesisClass::ScalarGrid(0.0, 1.0, m).value().thetas();
}

std::vector<Vector> DenseThetas(std::size_t m, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> thetas(m, Vector(dim));
  for (Vector& theta : thetas) {
    for (double& v : theta) v = 2.0 * rng.NextDouble() - 1.0;
  }
  return thetas;
}

std::vector<double> Profile(const LossFunction& loss, const std::vector<Vector>& thetas,
                            const Dataset& data) {
  return EmpiricalRiskProfile(loss, thetas, data).value();
}

// --------------------------------------------------------------------------
// Reduction tier: scalar vs SIMD risk profiles, ULP-bounded (bitwise-tight
// budget below kBlockedSumMinN), across seeds × losses × dims × cache modes.

TEST(SimdEquivalence, RiskProfileScalarVsSimdAcrossSeedsLossesDims) {
  ScopedCacheEnabled cache_off(false);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const bool small_n : {true, false}) {
      const std::size_t n = small_n ? 9 : 500;  // below/above kBlockedSumMinN
      const std::uint64_t budget = ReductionUlpBound(n);
      const Dataset data1 = MakeBernoulliData(n, seed);
      const Dataset data5 = MakeRegressionData(n, seed + 100);
      const std::vector<Vector> grid1 = ScalarThetas(21);
      const std::vector<Vector> grid5 = DenseThetas(21, 5, seed + 200);
      for (const LossAndTwin& named : KernelLossesAndTwins()) {
        const std::string tag = named.name + " seed=" + std::to_string(seed) +
                                " n=" + std::to_string(n);
        ExpectUlpClose(Profile(*named.twin, grid1, data1), Profile(*named.kernel, grid1, data1),
                       budget, "dim1 " + tag);
        ExpectUlpClose(Profile(*named.twin, grid5, data5), Profile(*named.kernel, grid5, data5),
                       budget, "dim5 " + tag);
      }
    }
  }
}

TEST(SimdEquivalence, SingleRiskMatchesProfileEntryBitwise) {
  // EmpiricalRisk and EmpiricalRiskProfile must take the SAME path for
  // one loss: learning_risk_test compares them at 1e-15, and path-dependent
  // divergence between them would be a silent contract break.
  ScopedCacheEnabled cache_off(false);
  const Dataset data = MakeRegressionData(200, 7);
  const std::vector<Vector> thetas = DenseThetas(11, 5, 8);
  for (const LossAndTwin& named : KernelLossesAndTwins()) {
    for (const LossFunction* loss : {named.twin.get(), named.kernel.get()}) {
      const std::vector<double> profile = EmpiricalRiskProfile(*loss, thetas, data).value();
      for (std::size_t i = 0; i < thetas.size(); ++i) {
        const double single = EmpiricalRisk(*loss, thetas[i], data).value();
        EXPECT_EQ(0u, UlpDistance(profile[i], single)) << loss->Name() << " theta " << i;
      }
    }
  }
}

TEST(SimdEquivalence, SimdProfileBitwiseDeterministicAcrossThreadCountsAndRepeats) {
  // The kernel is a pure function: repeated evaluation, and evaluation
  // from pool workers (each with its own thread_local SoA), must reproduce
  // identical bits. 8 workers exercises the cross-thread path even when the
  // global pool is inline.
  ScopedCacheEnabled cache_off(false);
  const Dataset data = MakeRegressionData(300, 11);
  const std::vector<Vector> thetas = DenseThetas(33, 5, 12);
  const ClippedSquaredLoss loss(1.0);

  const std::vector<double> reference = EmpiricalRiskProfile(loss, thetas, data).value();
  const std::vector<double> repeat = EmpiricalRiskProfile(loss, thetas, data).value();
  ExpectBitEqual(reference, repeat, "repeat");

  parallel::ThreadPool pool(8);
  parallel::ParallelTrialRunner runner(&pool);
  std::vector<double> pooled(thetas.size());
  runner.ForIndex(thetas.size(), [&](std::size_t i) {
    pooled[i] = EmpiricalRisk(loss, thetas[i], data).value();
  });
  ExpectBitEqual(reference, pooled, "8-thread pool vs inline profile");
}

TEST(SimdEquivalence, CacheOnOffBitwiseWithinEachMode) {
  const Dataset data = MakeBernoulliData(400, 21);
  const std::vector<Vector> thetas = ScalarThetas(41);
  const ClippedSquaredLoss kernel(1.0);
  const CustomTwin<ClippedSquaredLoss> twin(1.0);
  const LossFunction* const paths[] = {&twin, &kernel};
  for (const LossFunction* loss : paths) {
    std::vector<double> uncached;
    std::vector<double> cached_miss;
    std::vector<double> cached_hit;
    {
      ScopedCacheEnabled cache(false);
      uncached = perf::CachedRiskProfile(*loss, thetas, data).value();
    }
    {
      ScopedCacheEnabled cache(true);
      cached_miss = perf::CachedRiskProfile(*loss, thetas, data).value();
      cached_hit = perf::CachedRiskProfile(*loss, thetas, data).value();
    }
    const std::string tag = loss->Name();
    ExpectBitEqual(uncached, cached_miss, tag + " miss");
    ExpectBitEqual(uncached, cached_hit, tag + " hit");
  }
}

// --------------------------------------------------------------------------
// The cache keys a loss by Name and UpperBound, so a built-in loss and its
// twin, the same formula on the two paths, fill two entries, and each
// lookup is served its own path's bits.

TEST(SimdEquivalence, CacheServesKernelAndTwinTheirOwnEntries) {
  ScopedCacheEnabled cache(true);
  const Dataset data = MakeBernoulliData(500, 31);
  const std::vector<Vector> thetas = ScalarThetas(41);
  const ClippedSquaredLoss kernel(1.0);
  const CustomTwin<ClippedSquaredLoss> twin(1.0);
  const std::vector<double> kernel_direct = EmpiricalRiskProfile(kernel, thetas, data).value();
  const std::vector<double> twin_direct = EmpiricalRiskProfile(twin, thetas, data).value();
  // At n = 500 the blocked and the sequential sum differ in some entry, so
  // a lookup served the other entry would show.
  ASSERT_NE(0, std::memcmp(kernel_direct.data(), twin_direct.data(),
                           kernel_direct.size() * sizeof(double)));

  for (int round = 0; round < 2; ++round) {
    const std::string tag = round == 0 ? " fill" : " hit";
    ExpectBitEqual(kernel_direct, perf::CachedRiskProfile(kernel, thetas, data).value(),
                   "kernel" + tag);
    ExpectBitEqual(twin_direct, perf::CachedRiskProfile(twin, thetas, data).value(),
                   "twin" + tag);
  }
  const perf::RiskProfileCache::Stats stats = perf::RiskProfileCache::Global().stats();
  EXPECT_EQ(2u, stats.misses);
  EXPECT_EQ(2u, stats.hits);
  EXPECT_EQ(2u, perf::RiskProfileCache::Global().size());
}

// --------------------------------------------------------------------------
// Element-wise tier: bitwise assertions.

TEST(SimdEquivalence, GumbelMaxIndexBitwiseMatchesScalarLoop) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    Rng rng(seed);
    for (const std::size_t n : {1u, 2u, 31u, 32u, 1000u}) {
      std::vector<double> log_w(n);
      std::vector<double> uniforms(n);
      for (double& w : log_w) w = -10.0 * rng.NextDouble();
      rng.NextDoubleOpenBatch(uniforms.data(), n);

      std::ptrdiff_t scalar_best = -1;
      double best_val = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double gumbel = -std::log(-std::log(uniforms[i]));
        const double val = log_w[i] + gumbel;
        if (val > best_val) {
          best_val = val;
          scalar_best = static_cast<std::ptrdiff_t>(i);
        }
      }
      EXPECT_EQ(scalar_best, simd::GumbelMaxIndex(log_w.data(), uniforms.data(), n))
          << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdEquivalence, GumbelMaxIndexAllZeroWeightsReturnsSentinel) {
  const std::vector<double> log_w(8, -std::numeric_limits<double>::infinity());
  std::vector<double> uniforms(8, 0.5);
  EXPECT_EQ(-1, simd::GumbelMaxIndex(log_w.data(), uniforms.data(), log_w.size()));
}

TEST(SimdEquivalence, TiltKernelKeepsTheoremFourOneBitwise) {
  // ε·q + log π with q = -R̂ must be bitwise -(λ·R̂) + log π when ε = λ: the
  // two views of Theorem 4.1 share one tilt kernel precisely so this holds.
  Rng rng(17);
  const std::size_t n = 129;
  std::vector<double> risks(n);
  std::vector<double> neg_risks(n);
  std::vector<double> log_prior(n, -std::log(static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    risks[i] = rng.NextDouble();
    neg_risks[i] = -risks[i];
  }
  const double lambda = 3.25;
  std::vector<double> gibbs_view(n);
  std::vector<double> mechanism_view(n);
  simd::TiltLogWeights(risks.data(), log_prior.data(), n, -lambda, gibbs_view.data());
  simd::TiltLogWeights(neg_risks.data(), log_prior.data(), n, lambda, mechanism_view.data());
  ExpectBitEqual(gibbs_view, mechanism_view, "gibbs vs mechanism tilt");
}

TEST(SimdEquivalence, SoftmaxRowMatchesSoftmaxFromLog) {
  Rng rng(23);
  std::vector<double> log_w(77);
  for (double& v : log_w) v = 10.0 * rng.NextDouble() - 5.0;
  const std::vector<double> reference = SoftmaxFromLog(log_w).value();
  std::vector<double> row(log_w.size());
  ASSERT_TRUE(SoftmaxFromLogInto(log_w.data(), log_w.size(), row.data()).ok());
  ExpectBitEqual(reference, row, "softmax row");
  // In-place aliasing is part of the contract.
  std::vector<double> in_place = log_w;
  ASSERT_TRUE(SoftmaxFromLogInto(in_place.data(), in_place.size(), in_place.data()).ok());
  ExpectBitEqual(reference, in_place, "softmax in place");
}

// --------------------------------------------------------------------------
// LogSumExp: edge cases exact, small-n bitwise, large-n ULP-bounded.

TEST(SimdEquivalence, LogSumExpEdgeCasesMatchUtil) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(-inf, simd::LogSumExp(nullptr, 0));
  const double single = 0.6180339887498949;
  EXPECT_EQ(single, simd::LogSumExp(&single, 1));
  const std::vector<double> all_neg_inf(40, -inf);
  EXPECT_EQ(-inf, simd::LogSumExp(all_neg_inf.data(), all_neg_inf.size()));
  std::vector<double> with_pos_inf(40, 0.0);
  with_pos_inf[17] = inf;
  EXPECT_EQ(inf, simd::LogSumExp(with_pos_inf.data(), with_pos_inf.size()));
  std::vector<double> with_nan(40, 0.0);
  with_nan[33] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(simd::LogSumExp(with_nan.data(), with_nan.size())));
  // NaN beats +inf in either order: propagation, not absorption.
  with_nan[5] = inf;
  EXPECT_TRUE(std::isnan(simd::LogSumExp(with_nan.data(), with_nan.size())));
}

TEST(SimdEquivalence, LogSumExpScalarVsSimdAcrossBlockBoundary) {
  for (const std::uint64_t seed : {41u, 42u}) {
    Rng rng(seed);
    for (const std::size_t n : {1u, 8u, 31u, 32u, 33u, 64u, 1000u}) {
      std::vector<double> x(n);
      for (double& v : x) v = 40.0 * rng.NextDouble() - 20.0;
      const double scalar = LogSumExp(x);
      const double vectorized = simd::LogSumExp(x.data(), n);
      const std::uint64_t budget = ReductionUlpBound(n);
      EXPECT_LE(UlpDistance(scalar, vectorized), budget)
          << "seed=" << seed << " n=" << n << ": " << scalar << " vs " << vectorized;
    }
  }
}

// --------------------------------------------------------------------------
// Downstream consumers agree across the paths within proven tolerances.

TEST(SimdEquivalence, GibbsPosteriorAndChannelUlpCloseAcrossModes) {
  ScopedCacheEnabled cache_off(false);
  const Dataset data = MakeBernoulliData(64, 51);
  const ClippedSquaredLoss kernel(1.0);
  const CustomTwin<ClippedSquaredLoss> twin(1.0);
  auto gibbs = [&](const LossFunction& loss) {
    auto estimator =
        GibbsEstimator::CreateUniform(&loss, FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value(), 8.0)
            .value();
    return estimator.Posterior(data).value();
  };
  // exp() contracts ULP differences; 64 examples stay in the blocked regime,
  // so posterior entries inherit at most a few ulps from the risk profile.
  // The tilt multiplies the risk-profile ULP gap by λ before exp(), so
  // posterior entries carry a modest multiple of the reduction budget.
  constexpr std::uint64_t kDownstreamUlpBound = 64;
  ExpectUlpClose(gibbs(twin), gibbs(kernel), kDownstreamUlpBound, "gibbs posterior");

  const FiniteHypothesisClass grid = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 11).value();
  auto channel_row = [&](const LossFunction& loss) {
    const BernoulliMeanTask task = BernoulliMeanTask::Create(0.4).value();
    auto channel =
        BuildBernoulliGibbsChannel(task, 40, loss, grid, grid.UniformPrior(), 4.0).value();
    std::vector<double> flat;
    for (std::size_t k = 0; k < channel.channel.num_inputs(); ++k) {
      for (std::size_t i = 0; i < channel.channel.num_outputs(); ++i) {
        flat.push_back(channel.channel.TransitionProbability(k, i));
      }
    }
    return flat;
  };
  ExpectUlpClose(channel_row(twin), channel_row(kernel), kDownstreamUlpBound,
                 "channel rows");
}

// --------------------------------------------------------------------------
// Satellite 2 regressions: the NaN-poisoning sweep.

TEST(SimdNanPolicy, ClampLaundersNanWhichIsWhyInputsAreValidated) {
  // The IEEE edge that motivates input-side validation: max(0, NaN) == 0,
  // so Clamp silently turns a poisoned loss into a zero one. Pinned here so
  // a future Clamp "fix" revisits the validation policy consciously.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(0.0, Clamp(nan, 0.0, 1.0));
}

TEST(SimdNanPolicy, RiskRejectsNonFiniteInputsInBothModes) {
  const std::vector<Vector> thetas = ScalarThetas(5);
  const ClippedSquaredLoss kernel(1.0);
  const CustomTwin<ClippedSquaredLoss> twin(1.0);
  const LossFunction* const paths[] = {&twin, &kernel};
  for (const LossFunction* loss : paths) {
    Dataset nan_feature = MakeBernoulliData(12, 61);
    Dataset poisoned_feature = nan_feature.ReplaceExample(
        3, Example{Vector{std::numeric_limits<double>::quiet_NaN()}, 1.0}).value();
    EXPECT_EQ(StatusCode::kOutOfRange,
              EmpiricalRiskProfile(*loss, thetas, poisoned_feature).status().code())
        << loss->Name();

    Dataset poisoned_label = nan_feature.ReplaceExample(
        5, Example{Vector{1.0}, std::numeric_limits<double>::infinity()}).value();
    EXPECT_EQ(StatusCode::kOutOfRange,
              EmpiricalRisk(*loss, thetas[0], poisoned_label).status().code())
        << loss->Name();

    const Vector bad_theta{std::numeric_limits<double>::quiet_NaN()};
    EXPECT_EQ(StatusCode::kOutOfRange,
              EmpiricalRisk(*loss, bad_theta, nan_feature).status().code())
        << loss->Name();
  }
}

TEST(SimdNanPolicy, CustomLossEmittingNonFiniteIsCaught) {
  // A kCustom loss keeps the virtual path, where the post-sum check is the
  // only line of defense (its formula is opaque, its inputs were finite).
  class ExplodingLoss final : public LossFunction {
   public:
    double Loss(const Vector&, const Example&) const override {
      return std::numeric_limits<double>::quiet_NaN();
    }
    double UpperBound() const override { return 1.0; }
    std::string Name() const override { return "exploding"; }
  };
  const ExplodingLoss loss;
  const Dataset data = MakeBernoulliData(8, 71);
  EXPECT_EQ(StatusCode::kOutOfRange,
            EmpiricalRisk(loss, Vector{0.5}, data).status().code());
  EXPECT_EQ(StatusCode::kOutOfRange,
            EmpiricalRiskProfile(loss, ScalarThetas(4), data).status().code());
}

TEST(SimdNanPolicy, SamplerRejectsNanAndPosInfLogWeights) {
  Rng rng(81);
  std::vector<double> scratch;

  std::vector<double> with_nan{-1.0, std::numeric_limits<double>::quiet_NaN(), -2.0};
  EXPECT_EQ(StatusCode::kOutOfRange,
            SampleFromLogWeights(&rng, with_nan, &scratch).status().code());
  EXPECT_EQ(StatusCode::kOutOfRange, SampleFromLogWeights(&rng, with_nan).status().code());

  std::vector<double> with_inf{-1.0, std::numeric_limits<double>::infinity()};
  std::vector<std::size_t> out;
  EXPECT_EQ(StatusCode::kOutOfRange, SampleFromLogWeightsBatch(&rng, with_inf, 3, &out).code());

  // -inf atoms stay legal: they are honest zero-mass entries.
  std::vector<double> with_neg_inf{-1.0, -std::numeric_limits<double>::infinity(), -2.0};
  EXPECT_TRUE(SampleFromLogWeights(&rng, with_neg_inf, &scratch).ok());
}

}  // namespace
}  // namespace dplearn
