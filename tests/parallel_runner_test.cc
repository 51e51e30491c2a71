#include "parallel/trial_runner.h"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/thread_pool.h"
#include "robustness/failpoint.h"
#include "sampling/rng.h"

namespace dplearn {
namespace parallel {
namespace {

/// A randomized trial body with enough floating-point structure that any
/// stream mixup or reordering would change the bits of the result.
double TrialValue(std::size_t t, Rng& rng) {
  double acc = static_cast<double>(t) * 1e-3;
  for (int i = 0; i < 50; ++i) {
    acc += std::exp(-rng.NextDouble()) * std::sin(acc + rng.NextDouble());
  }
  return acc;
}

TEST(ParallelTrialRunnerTest, InlineMatchesSerialLoopExactly) {
  // The inline runner (null pool) must reproduce a hand-written serial
  // split-per-trial loop bit for bit.
  const std::size_t kTrials = 64;
  Rng serial_rng(99);
  std::vector<double> expected;
  for (std::size_t t = 0; t < kTrials; ++t) {
    Rng trial_rng = serial_rng.Split();
    expected.push_back(TrialValue(t, trial_rng));
  }

  Rng base(99);
  ParallelTrialRunner inline_runner(nullptr);
  const std::vector<double> got = inline_runner.MapTrials<double>(kTrials, &base, TrialValue);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t t = 0; t < kTrials; ++t) EXPECT_EQ(got[t], expected[t]);
}

TEST(ParallelTrialRunnerTest, ResultsBitIdenticalAcrossThreadCounts) {
  // The determinism contract: 1, 2, 3, and 8 workers all produce the exact
  // bits of the inline run.
  const std::size_t kTrials = 97;  // deliberately not a multiple of anything
  Rng base_inline(2024);
  ParallelTrialRunner inline_runner(nullptr);
  const std::vector<double> reference =
      inline_runner.MapTrials<double>(kTrials, &base_inline, TrialValue);

  for (std::size_t workers : {2u, 3u, 8u}) {
    ThreadPool pool(workers);
    ParallelTrialRunner runner(&pool);
    Rng base(2024);
    const std::vector<double> got = runner.MapTrials<double>(kTrials, &base, TrialValue);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t t = 0; t < kTrials; ++t) {
      EXPECT_EQ(got[t], reference[t]) << "trial " << t << " with " << workers << " workers";
    }
  }
}

TEST(ParallelTrialRunnerTest, BaseRngAdvancesAsIfSerial) {
  // After MapTrials the caller's generator must sit exactly N splits in,
  // independent of thread count — later experiment stages depend on it.
  Rng base_a(7);
  Rng base_b(7);
  ParallelTrialRunner inline_runner(nullptr);
  ThreadPool pool(4);
  ParallelTrialRunner pooled_runner(&pool);
  inline_runner.MapTrials<double>(31, &base_a, TrialValue);
  pooled_runner.MapTrials<double>(31, &base_b, TrialValue);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(base_a.NextUint64(), base_b.NextUint64());
}

TEST(ParallelTrialRunnerTest, MapComputesPureBodies) {
  ThreadPool pool(4);
  ParallelTrialRunner runner(&pool);
  const std::vector<int> squares =
      runner.Map<int>(50, [](std::size_t i) { return static_cast<int>(i * i); });
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ParallelTrialRunnerTest, ExceptionRethrownAfterAllTrialsFinish) {
  ThreadPool pool(4);
  ParallelTrialRunner runner(&pool);
  std::atomic<int> completed{0};
  // Throw at the last index: every other trial sits in an earlier or equal
  // chunk position, so all 63 must have completed by the time the rethrow
  // reaches the caller — no detached work survives the call. (A mid-chunk
  // throw additionally skips the rest of its own chunk; that part of the
  // geometry is not contractual.)
  EXPECT_THROW(
      runner.ForIndex(64,
                      [&completed](std::size_t i) {
                        if (i == 63) throw std::runtime_error("boom");
                        completed.fetch_add(1);
                      }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 63);
}

TEST(ParallelTrialRunnerTest, SingleTrialRunsOnCallingThread) {
  ThreadPool pool(4);
  ParallelTrialRunner runner(&pool);
  const std::thread::id main_id = std::this_thread::get_id();
  std::thread::id seen;
  runner.ForIndex(1, [&seen](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, main_id);
}

TEST(ParallelTrialRunnerTest, NestedRunnerExecutesInlineWithoutDeadlock) {
  // A trial body that itself fans out must run its inner region inline on
  // the worker; submitting nested work to the same (fully busy) pool could
  // deadlock. Two workers saturated by four outer chunks make the hazard
  // real (a 1-thread pool would be inlined by the runner before ever
  // reaching a worker).
  ThreadPool pool(2);
  ParallelTrialRunner outer(&pool);
  std::vector<int> inner_sums(4, 0);
  outer.ForIndex(4, [&pool, &inner_sums](std::size_t i) {
    EXPECT_TRUE(ThreadPool::OnWorkerThread());
    ParallelTrialRunner inner(&pool);
    std::vector<int> values(8, 0);
    inner.ForIndex(8, [&values](std::size_t j) { values[j] = static_cast<int>(j) + 1; });
    int sum = 0;
    for (int v : values) sum += v;
    inner_sums[i] = sum;
  });
  for (int sum : inner_sums) EXPECT_EQ(sum, 36);
}

TEST(ParallelTrialRunnerTest, MapTrialsStreamsMatchManualSplits) {
  // Trial t's generator is the t-th Split() of the base, seeded on the
  // worker from a NextUint64() the caller drew in trial order.
  constexpr std::size_t kTrials = 300;
  Rng base_manual(4242);
  std::vector<std::vector<std::uint64_t>> want(kTrials);
  for (std::vector<std::uint64_t>& draws : want) {
    Rng manual = base_manual.Split();
    for (int i = 0; i < 16; ++i) draws.push_back(manual.NextUint64());
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ParallelTrialRunner runner(p);
    Rng base(4242);
    const std::vector<std::vector<std::uint64_t>> got =
        runner.MapTrials<std::vector<std::uint64_t>>(kTrials, &base, [](std::size_t, Rng& rng) {
          std::vector<std::uint64_t> draws;
          for (int i = 0; i < 16; ++i) draws.push_back(rng.NextUint64());
          return draws;
        });
    EXPECT_EQ(got, want) << (p == nullptr ? "inline" : "pool");
    EXPECT_EQ(base.NextUint64(), Rng(base_manual).NextUint64()) << "base advanced differently";
  }
}

TEST(ParallelTrialRunnerTest, LowestFailingTrialSurfaces) {
  // Trials 5 and 60 sit in different blocks; whichever throws first in
  // wall time, trial 5's exception is the one the caller sees.
  ThreadPool pool(4);
  ParallelTrialRunner runner(&pool);
  for (int round = 0; round < 50; ++round) {
    try {
      runner.ForIndex(64, [](std::size_t i) {
        if (i == 5) {
          std::this_thread::yield();  // give trial 60 a head start
          throw std::runtime_error("trial 5");
        }
        if (i == 60) throw std::runtime_error("trial 60");
      });
      FAIL() << "expected a rethrown trial exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "trial 5") << "round " << round;
    }
  }
}

TEST(ParallelTrialRunnerTest, InjectedTaskFaultRethrownAfterEveryWorkerLeft) {
  // `pool.task` kills one worker task before it claims a block. The other
  // workers take every block, and the call rethrows the injected fault only
  // once they have all returned: nothing is running in the call's frame,
  // which ASan and TSan check.
  robustness::FailPointRegistry::Global().ClearAll();
  ThreadPool pool(4);
  ParallelTrialRunner runner(&pool);
  constexpr std::size_t kTrials = 2000;
  std::vector<int> runs(kTrials, 0);
  std::atomic<int> in_flight{0};
  {
    robustness::ScopedFailPoint fp("pool.task", "first:1");
    try {
      runner.ForIndex(kTrials, [&](std::size_t i) {
        in_flight.fetch_add(1);
        ++runs[i];
        in_flight.fetch_sub(1);
      });
      FAIL() << "expected the injected task fault";
    } catch (const std::runtime_error& error) {
      EXPECT_TRUE(robustness::IsInjectedFaultMessage(error.what())) << error.what();
    }
  }
  robustness::FailPointRegistry::Global().ClearAll();
  EXPECT_EQ(in_flight.load(), 0);
  for (std::size_t i = 0; i < kTrials; ++i) EXPECT_EQ(runs[i], 1) << "trial " << i;
}

}  // namespace
}  // namespace parallel
}  // namespace dplearn
