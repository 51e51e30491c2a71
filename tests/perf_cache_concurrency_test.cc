/// Concurrency of the src/perf risk-profile cache (DESIGN.md §10): hits
/// find, verify, mark and visit their entry under their own reader stripe
/// while misses on other threads take every stripe to evict that entry by
/// second chance, and the identity records (an entry's verified class id
/// and generation, a dataset's memoized content hash) are written by
/// whichever thread gets there first. Tagged TSAN, so it also runs under
/// ThreadSanitizer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/gibbs_estimator.h"
#include "learning/generators.h"
#include "learning/hypothesis.h"
#include "learning/loss.h"
#include "learning/risk.h"
#include "perf/risk_profile_cache.h"
#include "sampling/rng.h"

namespace dplearn {
namespace {

TEST(RiskProfileCacheConcurrencyTest, HitsRacingEvictionsServeExactProfiles) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCapacity = 3;
  constexpr std::size_t kDatasets = 8;  // more than kCapacity, so misses evict
  constexpr std::size_t kCallsPerThread = 300;
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  const auto task = BernoulliMeanTask::Create(0.4).value();
  std::vector<Dataset> datasets;
  std::vector<std::vector<double>> expected;
  for (std::size_t i = 0; i < kDatasets; ++i) {
    Rng rng(100 + i);
    datasets.push_back(task.Sample(40, &rng).value());
    expected.push_back(EmpiricalRiskProfile(loss, hclass.thetas(), datasets.back()).value());
  }

  perf::RiskProfileCache cache(kCapacity);
  std::vector<std::size_t> wrong(kThreads, 0);
  std::vector<std::size_t> oversized(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7 + t);
      for (std::size_t call = 0; call < kCallsPerThread; ++call) {
        // Half the calls go to two hot datasets, so hits keep landing on
        // entries that the other half's misses are evicting.
        const std::size_t i = static_cast<std::size_t>(
            rng.NextBounded(2) == 0 ? rng.NextBounded(2) : rng.NextBounded(kDatasets));
        auto got = cache.GetOrCompute(loss, hclass.thetas(), datasets[i]);
        if (!got.ok() || got->size() != expected[i].size() ||
            std::memcmp(got->data(), expected[i].data(), got->size() * sizeof(double)) != 0) {
          ++wrong[t];
        }
        if (cache.size() > kCapacity) ++oversized[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t << " got a profile that is not bitwise exact";
    EXPECT_EQ(oversized[t], 0u) << "thread " << t << " saw size() above capacity";
  }
  const perf::RiskProfileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kCallsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.size(), kCapacity);
}

TEST(RiskProfileCacheConcurrencyTest, FirstContentHashesAndIdentityHitsRaceCleanly) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kDatasets = 6;
  constexpr std::size_t kCapacity = 4;  // below kDatasets, so entries are refilled
  constexpr std::size_t kCallsPerThread = 300;
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  const auto task = BernoulliMeanTask::Create(0.4).value();
  // Nobody hashes these before the threads start, so the threads' first
  // content_hash() calls race on each one.
  std::vector<Dataset> datasets;
  std::vector<std::vector<double>> expected;
  for (std::size_t i = 0; i < kDatasets; ++i) {
    Rng rng(200 + i);
    datasets.push_back(task.Sample(40, &rng).value());
    expected.push_back(EmpiricalRiskProfile(loss, hclass.thetas(), datasets.back()).value());
  }
  const std::vector<Dataset>& shared = datasets;

  perf::RiskProfileCache cache(kCapacity);
  std::atomic<std::size_t> ready{0};
  std::vector<std::vector<std::uint64_t>> hashes(kThreads);
  std::vector<std::size_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const FiniteHypothesisClass mine = hclass;  // shares the id and the list
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const Dataset& data : shared) hashes[t].push_back(data.content_hash());
      Rng rng(17 + t);
      for (std::size_t call = 0; call < kCallsPerThread; ++call) {
        const std::size_t i = static_cast<std::size_t>(rng.NextBounded(kDatasets));
        // Every third call takes the bare-Θ overload, which verifies Θ
        // bitwise on the entries the class overload fills, and vice versa.
        auto got = call % 3 == 0 ? cache.GetOrCompute(loss, mine.thetas(), shared[i])
                                 : cache.GetOrCompute(loss, mine, shared[i]);
        if (!got.ok() || got->size() != expected[i].size() ||
            std::memcmp(got->data(), expected[i].data(), got->size() * sizeof(double)) != 0) {
          ++wrong[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t << " got a profile that is not bitwise exact";
    for (std::size_t i = 0; i < kDatasets; ++i) {
      EXPECT_EQ(hashes[t][i], Dataset(shared[i].examples()).content_hash())
          << "thread " << t << ", dataset " << i;
    }
  }
  const perf::RiskProfileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kCallsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(cache.size(), kCapacity);
}

TEST(RiskProfileCacheConcurrencyTest, SharedHitsRaceSecondChanceEvictionsAndClear) {
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kDatasets = 10;  // cold datasets keep evicting
  constexpr std::size_t kCallsPerReader = 400;
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 21).value();
  const auto task = BernoulliMeanTask::Create(0.4).value();
  std::vector<Dataset> datasets;
  std::vector<std::vector<double>> expected;
  for (std::size_t i = 0; i < kDatasets; ++i) {
    Rng rng(300 + i);
    datasets.push_back(task.Sample(40, &rng).value());
    expected.push_back(EmpiricalRiskProfile(loss, hclass.thetas(), datasets.back()).value());
  }

  perf::RiskProfileCache cache(kCapacity);
  std::atomic<bool> done{false};
  std::vector<std::size_t> wrong(kReaders, 0);
  std::vector<std::size_t> oversized(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(31 + t);
      for (std::size_t call = 0; call < kCallsPerReader; ++call) {
        // Three calls in four go to two hot datasets, whose entries keep
        // their marks; the rest miss and run the eviction scan over them.
        const std::size_t i = static_cast<std::size_t>(
            rng.NextBounded(4) != 0 ? rng.NextBounded(2) : rng.NextBounded(kDatasets));
        auto got = cache.GetOrCompute(loss, hclass, datasets[i]);
        if (!got.ok() || got->size() != expected[i].size() ||
            std::memcmp(got->data(), expected[i].data(), got->size() * sizeof(double)) != 0) {
          ++wrong[t];
        }
        if (cache.size() > kCapacity) ++oversized[t];
      }
    });
  }
  // A fourth thread empties the cache under the readers' feet.
  std::size_t clears = 0;
  std::thread clearer([&] {
    while (!done.load()) {
      cache.Clear();
      ++clears;
      std::this_thread::yield();
    }
  });
  for (std::thread& reader : readers) reader.join();
  done.store(true);
  clearer.join();

  for (std::size_t t = 0; t < kReaders; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t << " got a profile that is not bitwise exact";
    EXPECT_EQ(oversized[t], 0u) << "thread " << t << " saw size() above capacity";
  }
  EXPECT_GT(clears, 0u);
  EXPECT_LE(cache.size(), kCapacity);
  // After the race the cache still serves: a fill, then a hit.
  cache.Clear();
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, datasets[0]).ok());
  ASSERT_TRUE(cache.GetOrCompute(loss, hclass, datasets[0]).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RiskProfileCacheConcurrencyTest, GibbsDrawsTiltHitsInPlaceWhileInsertsEvict) {
  // The offline channel sweep's draws: eight threads call Sample() over the
  // 101 representative datasets (k ones in n = 100) through the global
  // cache, while a ninth inserts past its capacity, so entries the draws
  // are tilting from get marked, passed over and evicted around them.
  constexpr std::size_t kDrawThreads = 8;
  constexpr std::size_t kDrawsPerThread = 300;
  constexpr std::size_t kInserts = perf::RiskProfileCache::kDefaultCapacity + 64;
  ClippedSquaredLoss loss(1.0);
  const auto hclass = FiniteHypothesisClass::ScalarGrid(0.0, 1.0, 101).value();
  const auto gibbs = GibbsEstimator::CreateUniform(&loss, hclass, 4.0).value();
  std::vector<Dataset> representatives;
  std::vector<std::vector<double>> expected;
  for (std::size_t k = 0; k <= 100; ++k) {
    Dataset data;
    for (std::size_t i = 0; i < 100; ++i) data.Add(Example{Vector{1.0}, i < k ? 1.0 : 0.0});
    expected.push_back(EmpiricalRiskProfile(loss, hclass.thetas(), data).value());
    representatives.push_back(std::move(data));
  }
  std::vector<Dataset> fillers;
  for (std::size_t i = 0; i < kInserts; ++i) {
    const double label = static_cast<double>(i + 1) / static_cast<double>(kInserts + 1);
    fillers.push_back(Dataset({Example{Vector{1.0}, label}, Example{Vector{1.0}, 0.5}}));
  }

  const bool was_enabled = perf::RiskCacheEnabled();
  perf::SetRiskCacheEnabled(true);
  perf::RiskProfileCache& cache = perf::RiskProfileCache::Global();
  cache.Clear();
  std::vector<std::size_t> wrong(kDrawThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kDrawThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng pick(500 + t);
      for (std::size_t j = 0; j < kDrawsPerThread; ++j) {
        const std::size_t k = static_cast<std::size_t>(pick.NextBounded(101));
        Rng draw_rng(pick.NextUint64());
        Rng reference_rng = draw_rng;
        auto got = gibbs.Sample(representatives[k], &draw_rng);
        auto want = gibbs.SampleGivenRisks(expected[k], &reference_rng);
        if (!got.ok() || !want.ok() || *got != *want ||
            draw_rng.NextUint64() != reference_rng.NextUint64()) {
          ++wrong[t];
        }
      }
    });
  }
  std::size_t insert_failures = 0;
  threads.emplace_back([&] {
    for (const Dataset& data : fillers) {
      if (!cache.GetOrCompute(loss, hclass, data).ok()) ++insert_failures;
    }
  });
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kDrawThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t << " drew differently from the uncached path";
  }
  EXPECT_EQ(insert_failures, 0u);
  const perf::RiskProfileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kDrawThreads * kDrawsPerThread + kInserts);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.size(), perf::RiskProfileCache::kDefaultCapacity);
  cache.Clear();
  perf::SetRiskCacheEnabled(was_enabled);
}

}  // namespace
}  // namespace dplearn
