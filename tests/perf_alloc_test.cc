/// Allocation-count regression tests for the batched sampling fast paths
/// (DESIGN.md §10): a counting global operator new pins the heap behavior
/// the batch APIs exist to provide. If a refactor reintroduces a per-draw
/// allocation inside an inner loop, these counts — not a timing — catch it
/// deterministically.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "learning/streaming_risk.h"
#include "perf/risk_profile_cache.h"
#include "sampling/alias_sampler.h"
#include "sampling/distributions.h"
#include "sampling/rng.h"
#include "simd/kernels.h"
#include "util/math_util.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Replaceable global allocation functions: count every unaligned heap
// allocation in the process. Deletes stay malloc/free-symmetric so the
// default aligned variants (not replaced) never see our pointers.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dplearn {
namespace {

std::uint64_t CountAllocations(const std::function<void()>& body) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  body();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(PerfAllocTest, RngBatchFillsAllocateNothing) {
  Rng rng(1);
  std::vector<double> buffer(4096);
  // Warm-up: the first NextUint64 in a process lazily initializes the
  // fail-point registry it consults; steady state is what we pin.
  rng.NextDoubleBatch(buffer.data(), 1);
  const std::uint64_t allocs = CountAllocations([&] {
    for (int j = 0; j < 100; ++j) {
      rng.NextDoubleBatch(buffer.data(), buffer.size());
      rng.NextDoubleOpenBatch(buffer.data(), buffer.size());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(PerfAllocTest, ScratchGumbelSamplerIsAllocationFreeInSteadyState) {
  std::vector<double> log_w(256);
  for (std::size_t i = 0; i < log_w.size(); ++i) {
    log_w[i] = -0.01 * static_cast<double>(i);
  }
  Rng rng(2);
  std::vector<double> scratch;
  // Warm-up: the first call sizes the scratch buffer.
  ASSERT_TRUE(SampleFromLogWeights(&rng, log_w, &scratch).ok());
  const std::uint64_t allocs = CountAllocations([&] {
    for (int j = 0; j < 200; ++j) {
      auto draw = SampleFromLogWeights(&rng, log_w, &scratch);
      ASSERT_TRUE(draw.ok());
    }
  });
  // This is THE property the MCMC/Gibbs inner-loop overload exists for:
  // repeated draws from one posterior through a long-lived buffer touch the
  // heap zero times.
  EXPECT_EQ(allocs, 0u);
}

TEST(PerfAllocTest, LogWeightsBatchAllocatesPerBlockNotPerDraw) {
  std::vector<double> log_w(128);
  for (std::size_t i = 0; i < log_w.size(); ++i) {
    log_w[i] = -0.02 * static_cast<double>(i);
  }
  Rng rng(3);
  std::vector<std::size_t> out(512);  // pre-sized: resize(k) cannot grow it
  const std::uint64_t allocs = CountAllocations([&] {
    ASSERT_TRUE(SampleFromLogWeightsBatch(&rng, log_w, 512, &out).ok());
  });
  // One scratch buffer for the whole 512-draw block (plus nothing per
  // draw). The bound is deliberately a small constant, not zero: the batch
  // owns its scratch so callers don't have to.
  EXPECT_LE(allocs, 2u);
}

TEST(PerfAllocTest, PointerLogSumExpAllocatesNothing) {
  // The LogSumExp(const double*, n) overload exists so hot paths stop
  // materializing a temporary std::vector per call; pin that the whole
  // family (util pointer overload, simd kernel, softmax-into) is heap-free.
  std::vector<double> log_w(512);
  for (std::size_t i = 0; i < log_w.size(); ++i) {
    log_w[i] = -0.005 * static_cast<double>(i);
  }
  std::vector<double> probs(log_w.size());
  double sink = 0.0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int j = 0; j < 100; ++j) {
      sink += LogSumExp(log_w.data(), log_w.size());
      sink += simd::LogSumExp(log_w.data(), log_w.size());
      ASSERT_TRUE(SoftmaxFromLogInto(log_w.data(), log_w.size(), probs.data()).ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(PerfAllocTest, GibbsSampleGivenRisksIsAllocationFreeInSteadyState) {
  // The λ-sweep inner loop: one risk profile, many draws. The estimator
  // keeps its log-weight and uniform scratch in thread_local buffers, so
  // after the first draw sized them the loop never touches the heap.
  const ClippedSquaredLoss loss(1.0);
  auto grid = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 257).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, std::move(grid), 4.0).value();
  std::vector<double> risks(257);
  for (std::size_t i = 0; i < risks.size(); ++i) {
    risks[i] = 0.5 + 0.4 * std::sin(static_cast<double>(i));
  }
  Rng rng(5);
  ASSERT_TRUE(gibbs.SampleGivenRisks(risks, &rng).ok());  // warm-up sizes scratch
  const std::uint64_t allocs = CountAllocations([&] {
    for (int j = 0; j < 200; ++j) {
      auto draw = gibbs.SampleGivenRisks(risks, &rng);
      ASSERT_TRUE(draw.ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(PerfAllocTest, GibbsSampleOnWarmCacheAllocatesNothing) {
  // The channel sweep's draw: Sample(data, rng) on a cached profile. A hit
  // tilts the entry's risks in place under the cache's reader stripe, so
  // the draw copies no profile and, with the scratch sized, allocates
  // nothing at all.
  const ClippedSquaredLoss loss(1.0);
  auto grid = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, std::move(grid), 4.0).value();
  std::vector<Dataset> datasets;
  for (std::size_t k = 0; k <= 100; k += 10) {
    Dataset data;
    for (std::size_t i = 0; i < 100; ++i) data.Add(Example{Vector{1.0}, i < k ? 1.0 : 0.0});
    datasets.push_back(std::move(data));
  }
  const bool was_enabled = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(true);
  perf::RiskProfileCache::Global().Clear();
  Rng rng(8);
  for (const Dataset& data : datasets) ASSERT_TRUE(gibbs.Sample(data, &rng).ok());  // fills
  const std::uint64_t hits_before = perf::RiskProfileCache::Global().stats().hits;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int j = 0; j < 200; ++j) {
      auto draw = gibbs.Sample(datasets[static_cast<std::size_t>(j) % datasets.size()], &rng);
      ASSERT_TRUE(draw.ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(perf::RiskProfileCache::Global().stats().hits - hits_before, 200u);
  perf::RiskProfileCache::Global().Clear();
  perf::SetRiskCacheEnabled(was_enabled);
}

TEST(PerfAllocTest, StreamingAddRemoveAndSampleAreAllocationFreeInSteadyState) {
  // The streaming contract (DESIGN.md §15): at constant occupancy, the
  // add → remove → draw loop of a long-running stream touches the heap zero
  // times. Example slots are recycled by copy-assignment, the Θ block, sums
  // and delta row are sized at construction, and SampleStreaming reuses the
  // estimator's thread_local scratch.
  const ClippedSquaredLoss loss(1.0);
  auto grid = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101).value();
  StreamingRiskProfile::Options options;
  options.resync_every = 0;  // resync is the amortized slow path; pin the fast one
  options.reserve_examples = 256;
  auto profile = StreamingRiskProfile::Create(&loss, grid.thetas(), options).value();
  auto gibbs = GibbsEstimator::CreateUniform(&loss, grid, 4.0).value();
  Rng rng(6);
  std::vector<Example> pool(200);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].features = {1.0};
    pool[i].label = (i % 3 == 0) ? 1.0 : 0.0;
  }
  // Warm-up: populate to steady occupancy, size every scratch buffer, and
  // take the first draw (thread_local sizing, lazy fail-point registry).
  for (const Example& z : pool) ASSERT_TRUE(profile.AddExample(z).ok());
  ASSERT_TRUE(profile.RemoveExample(pool[0]).ok());
  ASSERT_TRUE(profile.AddExample(pool[0]).ok());
  ASSERT_TRUE(gibbs.SampleStreaming(profile, &rng).ok());
  std::vector<double> snapshot(grid.size());
  ASSERT_TRUE(profile.SnapshotInto(&snapshot).ok());

  const std::uint64_t allocs = CountAllocations([&] {
    for (std::size_t j = 0; j < 200; ++j) {
      const Example& z = pool[j % pool.size()];
      ASSERT_TRUE(profile.RemoveExample(z).ok());
      ASSERT_TRUE(profile.AddExample(z).ok());
      ASSERT_TRUE(profile.SnapshotInto(&snapshot).ok());
      ASSERT_TRUE(gibbs.SampleStreaming(profile, &rng).ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(PerfAllocTest, AliasBatchIsAllocationFreeWithPreparedOutput) {
  std::vector<double> p(64, 1.0 / 64.0);
  auto sampler = AliasSampler::Create(p).value();
  Rng rng(4);
  std::vector<std::size_t> out(1024);
  sampler.SampleBatch(&rng, 1, &out);  // warm-up (lazy fail-point registry)
  out.resize(1024);
  const std::uint64_t allocs = CountAllocations([&] {
    for (int j = 0; j < 50; ++j) {
      sampler.SampleBatch(&rng, 1024, &out);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace dplearn
