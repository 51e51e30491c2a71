/// Gibbs/risk-subsystem microbenchmarks: the empirical-risk profile (raw
/// and through the src/perf cache), exact posteriors, batched posterior
/// sampling, and the headline grid-sweep pair — BM_GibbsGridSweepUncached
/// vs BM_GibbsGridSweepCached run the SAME λ sweep with the risk-profile
/// cache off and on. The cached form skips |grid|-1 of the |Θ|·n risk
/// passes, so scripts/check_bench_speedup.py asserts a >=2x ratio between
/// the two inside one snapshot (a machine-independent gate, unlike the
/// cross-run 25% regression threshold).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>
#include "bench/bench_common.h"
#include "core/gibbs_estimator.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "learning/streaming_risk.h"
#include "perf/risk_profile_cache.h"
#include "sampling/rng.h"
#include "tests/custom_loss_twin.h"

namespace dplearn {
namespace {

void BM_EmpiricalRiskProfile(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(m);
  Dataset data = bench::MakeBernoulliData(500, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmpiricalRiskProfile(loss, hclass.thetas(), data).value());
  }
}
BENCHMARK(BM_EmpiricalRiskProfile)->Arg(21)->Arg(201);

/// The same profile on the loss's custom twin, which has no kernel and so
/// runs the virtual loop: the in-snapshot scalar baseline for the SIMD
/// ratio gate (scripts/check_bench_speedup.py asserts scalar/201 >= 1.5x
/// BM_EmpiricalRiskProfile/201 above, which runs the kernel).
void BM_EmpiricalRiskProfileScalar(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  CustomTwin<ClippedSquaredLoss> loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(m);
  Dataset data = bench::MakeBernoulliData(500, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmpiricalRiskProfile(loss, hclass.thetas(), data).value());
  }
}
BENCHMARK(BM_EmpiricalRiskProfileScalar)->Arg(201);

/// Steady-state cache hit through the class overload, in its copying form
/// (CachedRiskProfile, which the channel builder and Posterior take): after
/// the first iteration a hit combines the two memoized content hashes,
/// finds the entry under this thread's reader stripe, skips both bitwise
/// compares because the class id and the dataset generation were verified
/// by the fill, and copies the risks out. Compare against
/// BM_EmpiricalRiskProfile/201 for the hit-vs-compute gap.
void BM_RiskProfileCacheHit(benchmark::State& state) {
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(201);
  Dataset data = bench::MakeBernoulliData(500, 9);
  const bool prev = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(true);
  perf::RiskProfileCache::Global().Clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(perf::CachedRiskProfile(loss, hclass, data).value());
  }
  perf::SetRiskCacheEnabled(prev);
}
BENCHMARK(BM_RiskProfileCacheHit);

/// The same hit from four threads at once on one entry, as the pool
/// workers of a channel sweep make them. Each thread takes its own reader
/// stripe and counts its hits there, so the per-thread time shows what is
/// still shared: the entry's lines, which hits only read, and the heap the
/// copies come from. Thread 0 fills the entry before the timed loop, which
/// every thread enters together.
void BM_RiskProfileCacheHitContended(benchmark::State& state) {
  static ClippedSquaredLoss loss(1.0);
  static const FiniteHypothesisClass hclass = bench::MakeScalarGrid(201);
  static const Dataset data = bench::MakeBernoulliData(500, 9);
  static bool prev = true;
  if (state.thread_index() == 0) {
    prev = perf::RiskCacheEnabled();
    perf::SetRiskCacheEnabled(true);
    perf::RiskProfileCache::Global().Clear();
    (void)perf::CachedRiskProfile(loss, hclass, data).value();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(perf::CachedRiskProfile(loss, hclass, data).value());
  }
  if (state.thread_index() == 0) perf::SetRiskCacheEnabled(prev);
}
BENCHMARK(BM_RiskProfileCacheHitContended)->Threads(4);

/// The channel sweep's draw at the offline_channel shape: |Θ| = 101 and the
/// 101 representative datasets of n = 100 Bernoulli labels (k ones, then
/// zeros), all cached, and one Sample() per iteration on the next dataset.
/// A warm draw tilts the cached risks in place and copies nothing.
struct OfflineDrawShape {
  OfflineDrawShape() : gibbs(GibbsEstimator::CreateUniform(&loss, bench::MakeScalarGrid(101),
                                                           4.0).value()) {
    for (std::size_t k = 0; k <= 100; ++k) {
      Dataset data;
      for (std::size_t i = 0; i < 100; ++i) data.Add(Example{Vector{1.0}, i < k ? 1.0 : 0.0});
      datasets.push_back(std::move(data));
    }
  }
  void Warm() const {
    perf::SetRiskCacheEnabled(true);
    perf::RiskProfileCache::Global().Clear();
    for (const Dataset& data : datasets) (void)gibbs.RiskProfile(data).value();
  }

  ClippedSquaredLoss loss{1.0};
  GibbsEstimator gibbs;
  std::vector<Dataset> datasets;
};

void RunCachedDraws(benchmark::State& state, const OfflineDrawShape& shape) {
  Rng rng(20 + static_cast<std::uint64_t>(state.thread_index()));
  std::size_t k = static_cast<std::size_t>(state.thread_index()) * 31;
  for (auto _ : state) {
    k = k == 100 ? 0 : k + 1;
    benchmark::DoNotOptimize(shape.gibbs.Sample(shape.datasets[k], &rng).value());
  }
}

void BM_GibbsSampleCached(benchmark::State& state) {
  static const OfflineDrawShape shape;
  shape.Warm();
  RunCachedDraws(state, shape);
}
BENCHMARK(BM_GibbsSampleCached);

/// BM_GibbsSampleCached from four threads at once, as the channel sweep's
/// pool workers draw: ideally the per-thread time equals the one-thread
/// time, and the ratio of the two is the cost of what the draws share.
/// Thread 0 warms the cache before the timed loop, which every thread
/// enters together.
void BM_GibbsSampleCachedContended(benchmark::State& state) {
  static const OfflineDrawShape shape;
  if (state.thread_index() == 0) shape.Warm();
  RunCachedDraws(state, shape);
}
BENCHMARK(BM_GibbsSampleCachedContended)->Threads(4);

void BM_GibbsPosterior(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(m);
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 10.0).value();
  Dataset data = bench::MakeBernoulliData(n, 6);
  const bool prev = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(false);  // measure the full posterior pass
  for (auto _ : state) {
    benchmark::DoNotOptimize(gibbs.Posterior(data).value());
  }
  perf::SetRiskCacheEnabled(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * n));
}
BENCHMARK(BM_GibbsPosterior)->Args({21, 100})->Args({101, 100})->Args({101, 1000});

/// k posterior draws via SampleBatch: one risk profile + log-weight pass,
/// then k Gumbel-max scans. The single-draw loop pays the profile k times
/// (cache off) — this is the shape λ-selection and the DP verifier use.
void BM_GibbsSampleBatch(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(101);
  auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 10.0).value();
  Dataset data = bench::MakeBernoulliData(1000, 6);
  Rng rng(14);
  std::vector<std::size_t> out;
  const bool prev = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(false);
  for (auto _ : state) {
    const Status status = gibbs.SampleBatch(data, &rng, k, &out);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(out.data());
  }
  perf::SetRiskCacheEnabled(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_GibbsSampleBatch)->Arg(16)->Arg(256);

constexpr double kSweepLambdas[] = {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};

/// One full λ grid sweep (8 cells): posterior at every temperature over a
/// fixed 1000-example dataset and 101-point grid.
void RunGridSweep(benchmark::State& state, bool cached) {
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(101);
  Dataset data = bench::MakeBernoulliData(1000, 6);
  const bool prev = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(cached);
  for (auto _ : state) {
    // Clearing inside the timed region charges the cached sweep its one
    // real miss per iteration — the steady state it claims is "compute the
    // profile once per (dataset, loss), not once per λ".
    perf::RiskProfileCache::Global().Clear();
    for (double lambda : kSweepLambdas) {
      auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, lambda).value();
      benchmark::DoNotOptimize(gibbs.Posterior(data).value());
    }
  }
  perf::SetRiskCacheEnabled(prev);
}

void BM_GibbsGridSweepUncached(benchmark::State& state) { RunGridSweep(state, false); }
BENCHMARK(BM_GibbsGridSweepUncached);

void BM_GibbsGridSweepCached(benchmark::State& state) { RunGridSweep(state, true); }
BENCHMARK(BM_GibbsGridSweepCached);

/// One streamed turnover step at n=1000: remove the oldest example, add a
/// new one, snapshot the live profile. Two O(|Θ|) delta rows + an O(|Θ|)
/// divide — against BM_StreamingVsFullRecompute below this is the ratio the
/// streaming layer exists for, and scripts/check_bench_speedup.py gates it
/// at >=10x inside one snapshot.
void BM_StreamingUpdate(benchmark::State& state) {
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(101);
  Dataset data = bench::MakeBernoulliData(1000, 6);
  StreamingRiskProfile::Options options;
  options.resync_every = 0;  // measure the pure fast path
  options.reserve_examples = data.size() + 1;
  auto profile =
      StreamingRiskProfile::Create(&loss, hclass.thetas(), options).value();
  for (const Example& z : data.examples()) {
    if (!profile.AddExample(z).ok()) state.SkipWithError("seed add failed");
  }
  std::vector<double> snapshot(hclass.size());
  std::size_t oldest = 0;
  for (auto _ : state) {
    const Example& victim = data.at(oldest);
    oldest = (oldest + 1) % data.size();
    Example fresh = victim;
    fresh.label = 1.0 - fresh.label;
    if (!profile.RemoveExample(victim).ok() || !profile.AddExample(fresh).ok() ||
        !profile.SnapshotInto(&snapshot).ok()) {
      state.SkipWithError("streamed update failed");
    }
    benchmark::DoNotOptimize(snapshot.data());
    // Restore the original example so the next pass over `data` still finds
    // its victims live (the profile matches bitwise).
    if (!profile.RemoveExample(fresh).ok() || !profile.AddExample(victim).ok()) {
      state.SkipWithError("streamed restore failed");
    }
  }
}
BENCHMARK(BM_StreamingUpdate);

/// Seeding a fresh stream from a served dataset, the first append of a
/// `serve_gibbs` tenant: n = 2000 examples folded one at a time into
/// |Θ| = 1001 compensated sums, on the event loop that takes the append.
void BM_StreamingSeed(benchmark::State& state) {
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(1001);
  Dataset data = bench::MakeBernoulliData(2000, 7);
  for (auto _ : state) {
    auto profile = StreamingRiskProfile::Create(&loss, hclass.thetas()).value();
    for (const Example& z : data.examples()) {
      if (!profile.AddExample(z).ok()) state.SkipWithError("seed add failed");
    }
    benchmark::DoNotOptimize(profile.size());
  }
}
BENCHMARK(BM_StreamingSeed);

/// What the same turnover costs without the streaming layer: a full
/// |Θ|·n EmpiricalRiskProfile recompute per step.
void BM_StreamingVsFullRecompute(benchmark::State& state) {
  ClippedSquaredLoss loss(1.0);
  const FiniteHypothesisClass hclass = bench::MakeScalarGrid(101);
  Dataset data = bench::MakeBernoulliData(1000, 6);
  std::size_t oldest = 0;
  for (auto _ : state) {
    const double original = data.at(oldest).label;
    if (!data.SetLabel(oldest, 1.0 - original).ok()) {
      state.SkipWithError("label flip failed");
    }
    benchmark::DoNotOptimize(EmpiricalRiskProfile(loss, hclass.thetas(), data).value());
    if (!data.SetLabel(oldest, original).ok()) {
      state.SkipWithError("label restore failed");
    }
    oldest = (oldest + 1) % data.size();
  }
}
BENCHMARK(BM_StreamingVsFullRecompute);

}  // namespace
}  // namespace dplearn

BENCHMARK_MAIN();
