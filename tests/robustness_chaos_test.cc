/// Integration coverage for the fail-point hooks compiled into the library:
/// each armed fail point must degrade its subsystem the way DESIGN.md §9
/// promises (typed error, retry, or drop-and-count), and disarming must
/// restore byte-identical behavior.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "learning/dataset.h"
#include "mechanisms/laplace.h"
#include "mechanisms/privacy_budget.h"
#include "mechanisms/sensitivity.h"
#include "obs/event_sink.h"
#include "parallel/thread_pool.h"
#include "robustness/failpoint.h"
#include "sampling/rng.h"
#include "util/status.h"

namespace dplearn {
namespace {

using robustness::FailPointRegistry;
using robustness::ScopedFailPoint;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().ClearAll(); }
  void TearDown() override { FailPointRegistry::Global().ClearAll(); }
};

Dataset MakeDataset(std::size_t n) {
  std::vector<Example> examples;
  for (std::size_t i = 0; i < n; ++i) {
    examples.push_back(Example{Vector{1.0}, i % 2 == 0 ? 1.0 : 0.0});
  }
  return Dataset(std::move(examples));
}

TEST_F(ChaosTest, RngDegenerateEveryNZeroesThoseDraws) {
  // Reference draws are taken BEFORE arming (the fail point is global, so a
  // live "clean" generator would consume hit indices too). Degenerate draws
  // return 0 but consume the same amount of state, so the faulty stream
  // matches the reference on every non-fired draw.
  Rng clean(99);
  std::vector<std::uint64_t> want;
  for (int i = 0; i < 9; ++i) want.push_back(clean.NextUint64());

  Rng faulty(99);
  ScopedFailPoint fp("rng.degenerate", "every:3");
  for (int i = 1; i <= 9; ++i) {
    const std::uint64_t got = faulty.NextUint64();
    if (i % 3 == 0) {
      EXPECT_EQ(got, 0u) << "draw " << i;
    } else {
      EXPECT_EQ(got, want[static_cast<std::size_t>(i - 1)]) << "draw " << i;
    }
  }
}

std::uint64_t DegenerateHits() {
  for (const robustness::FailPointStats& stats : FailPointRegistry::Global().Stats()) {
    if (stats.name == "rng.degenerate") return stats.hits;
  }
  return 0;
}

TEST_F(ChaosTest, RngDegenerateBatchFillsMatchSingleDraws) {
  // Armed, a batch fill takes the per-draw path, so the hook fires on the
  // same indices as single draws: the same bits, the same degenerate
  // values, the same hit count, and the generator ends in the same state.
  constexpr std::size_t kDraws = 50;
  for (const bool open : {false, true}) {
    std::vector<double> single(kDraws);
    std::uint64_t single_hits = 0;
    Rng one(123);
    {
      ScopedFailPoint fp("rng.degenerate", "every:7");
      for (double& u : single) u = open ? one.NextDoubleOpen() : one.NextDouble();
      single_hits = DegenerateHits();
    }
    std::vector<double> batch(kDraws);
    std::uint64_t batch_hits = 0;
    Rng many(123);
    {
      ScopedFailPoint fp("rng.degenerate", "every:7");
      if (open) {
        many.NextDoubleOpenBatch(batch.data(), batch.size());
      } else {
        many.NextDoubleBatch(batch.data(), batch.size());
      }
      batch_hits = DegenerateHits();
    }
    EXPECT_EQ(single_hits, kDraws);
    EXPECT_EQ(batch_hits, single_hits);
    const double degenerate = open ? 0.5 * 0x1.0p-53 : 0.0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i]), std::bit_cast<std::uint64_t>(single[i]))
          << "draw " << i << (open ? " (open)" : "");
      EXPECT_EQ(batch[i] == degenerate, (i + 1) % 7 == 0) << "draw " << i;
    }
    EXPECT_EQ(one.NextUint64(), many.NextUint64());
  }
}

TEST_F(ChaosTest, MechanismSampleFailsWithInjectedUnavailable) {
  auto query = BoundedMeanQuery(0.0, 1.0, 10);
  ASSERT_TRUE(query.ok());
  auto mechanism = LaplaceMechanism::Create(query.value(), 1.0);
  ASSERT_TRUE(mechanism.ok());
  const Dataset data = MakeDataset(10);
  Rng rng(7);

  {
    ScopedFailPoint fp("mechanism.sample", "always");
    const auto release = mechanism.value().Release(data, &rng);
    ASSERT_FALSE(release.ok());
    EXPECT_EQ(release.status().code(), StatusCode::kUnavailable);
    EXPECT_TRUE(robustness::IsInjectedFault(release.status()));
  }
  // Disarmed: the release works again.
  EXPECT_TRUE(mechanism.value().Release(data, &rng).ok());
}

TEST_F(ChaosTest, BudgetSpendFaultLeavesLedgerUntouched) {
  auto accountant = PrivacyAccountant::Create(PrivacyBudget{10.0, 0.0});
  ASSERT_TRUE(accountant.ok());
  ASSERT_TRUE(accountant.value().Spend(PrivacyBudget{1.0, 0.0}, "warmup").ok());
  const PrivacyBudget before = accountant.value().spent();

  {
    ScopedFailPoint fp("budget.spend", "always");
    const Status status = accountant.value().Spend(PrivacyBudget{1.0, 0.0}, "chaos");
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(robustness::IsInjectedFault(status));
    // Failed before mutation: the ledger still shows only the warmup spend.
    EXPECT_EQ(accountant.value().spent(), before);
  }
  EXPECT_TRUE(accountant.value().Spend(PrivacyBudget{1.0, 0.0}, "recovered").ok());
  EXPECT_DOUBLE_EQ(accountant.value().spent().epsilon, 2.0);
}

TEST_F(ChaosTest, PoolTaskFaultSurfacesThroughFuture) {
  parallel::ThreadPool pool(2);
  ScopedFailPoint fp("pool.task", "first:1");
  std::future<void> poisoned = pool.Submit([] {});
  try {
    poisoned.get();
    FAIL() << "expected the injected task fault";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(robustness::IsInjectedFaultMessage(error.what()));
  }
  // Only the first task is poisoned; the pool itself is healthy.
  std::future<void> healthy = pool.Submit([] {});
  EXPECT_NO_THROW(healthy.get());
}

TEST_F(ChaosTest, SinkWriteFaultDropsAndCounts) {
  const std::string path = ::testing::TempDir() + "/chaos_sink_test.jsonl";
  std::remove(path.c_str());
  auto sink = obs::JsonlFileSink::Open(path);
  ASSERT_TRUE(sink.ok());

  obs::Event event;
  event.type = "test";
  event.name = "chaos";
  {
    ScopedFailPoint fp("sink.write", "always");
    sink.value()->Emit(event);  // must not throw or crash
    EXPECT_EQ(sink.value()->dropped_events(), 1u);
  }
  sink.value()->Emit(event);
  EXPECT_EQ(sink.value()->dropped_events(), 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, SinkWriteTransientFaultIsRetriedAway) {
  const std::string path = ::testing::TempDir() + "/chaos_sink_retry_test.jsonl";
  std::remove(path.c_str());
  auto sink = obs::JsonlFileSink::Open(path);
  ASSERT_TRUE(sink.ok());

  obs::Event event;
  event.type = "test";
  event.name = "retry";
  {
    // Fails the first attempt only; the in-call retry succeeds, so nothing
    // is dropped.
    ScopedFailPoint fp("sink.write", "first:1");
    sink.value()->Emit(event);
    EXPECT_EQ(sink.value()->dropped_events(), 0u);
  }
  std::remove(path.c_str());
}

TEST_F(ChaosTest, SinkOpenFaultExhaustsRetriesThenErrors) {
  ScopedFailPoint fp("sink.open", "always");
  const std::string path = ::testing::TempDir() + "/chaos_sink_open_test.jsonl";
  auto sink = obs::JsonlFileSink::Open(path);
  ASSERT_FALSE(sink.ok());
  EXPECT_TRUE(robustness::IsInjectedFault(sink.status()));
}

}  // namespace
}  // namespace dplearn
