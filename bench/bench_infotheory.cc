/// Information-theory-subsystem microbenchmarks: Gibbs learning-channel
/// construction (whose risk rows now come through the src/perf cache —
/// the cached variant models a λ sweep re-enumerating the same n+1
/// representative datasets), channel mutual information, and the KSG
/// nearest-neighbor MI estimator.

#include <cstddef>
#include <vector>

#include <benchmark/benchmark.h>
#include "bench/bench_common.h"
#include "core/learning_channel.h"
#include "infotheory/mutual_information.h"
#include "learning/generators.h"
#include "learning/loss.h"
#include "perf/risk_profile_cache.h"
#include "sampling/distributions.h"
#include "sampling/rng.h"
#include "tests/custom_loss_twin.h"

namespace dplearn {
namespace {

void BM_ChannelConstruction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto task = BernoulliMeanTask::Create(0.4).value();
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(21);
  const bool prev = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(false);  // cold-build cost: every risk row computed
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), 5.0)
            .value());
  }
  perf::SetRiskCacheEnabled(prev);
}
BENCHMARK(BM_ChannelConstruction)->Arg(10)->Arg(50)->Arg(200);

/// Cold channel build on the loss's custom twin, whose risk rows run the
/// virtual loop: the scalar baseline for the in-snapshot SIMD ratio gate on
/// BM_ChannelConstruction/200.
void BM_ChannelConstructionScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto task = BernoulliMeanTask::Create(0.4).value();
  CustomTwin<ClippedSquaredLoss> loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(21);
  const bool prev_cache = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), 5.0)
            .value());
  }
  perf::SetRiskCacheEnabled(prev_cache);
}
BENCHMARK(BM_ChannelConstructionScalar)->Arg(200);

/// Rebuilding the channel at a new λ with the cache warm: only the Gibbs
/// tilt and the channel assembly are paid; the n+1 risk rows are hits.
void BM_ChannelConstructionCachedRebuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto task = BernoulliMeanTask::Create(0.4).value();
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(21);
  const bool prev = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(true);
  perf::RiskProfileCache::Global().Clear();
  // Warm the cache, then time rebuilds at a different temperature.
  benchmark::DoNotOptimize(
      BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), 5.0).value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), 10.0)
            .value());
  }
  perf::SetRiskCacheEnabled(prev);
}
BENCHMARK(BM_ChannelConstructionCachedRebuild)->Arg(50)->Arg(200);

void BM_ChannelMutualInformation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto task = BernoulliMeanTask::Create(0.4).value();
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(21);
  auto channel =
      BuildBernoulliGibbsChannel(task, n, loss, hclass, hclass.UniformPrior(), 5.0).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChannelMutualInformation(channel).value());
  }
}
BENCHMARK(BM_ChannelMutualInformation)->Arg(10)->Arg(50)->Arg(200);

void BM_KsgMi(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = SampleStandardNormal(&rng);
    ys[i] = 0.7 * xs[i] + SampleStandardNormal(&rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(KsgMi(xs, ys, 4).value());
  }
}
BENCHMARK(BM_KsgMi)->Arg(200)->Arg(500);

}  // namespace
}  // namespace dplearn

BENCHMARK_MAIN();
