#include "parallel/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dplearn {
namespace parallel {
namespace {

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&executed] { executed.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPoolTest, TasksRunOffTheSubmittingThread) {
  ThreadPool pool(2);
  const std::thread::id main_id = std::this_thread::get_id();
  std::thread::id task_id;
  pool.Submit([&task_id] { task_id = std::this_thread::get_id(); }).get();
  EXPECT_NE(task_id, main_id);
}

TEST(ThreadPoolTest, WorkersRunConcurrently) {
  // Two tasks rendezvous: each blocks until the other has started. This
  // completes only if two workers are live simultaneously (blocking waits
  // make this robust even on a single hardware core).
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started == 2; });
  };
  std::future<void> a = pool.Submit(rendezvous);
  std::future<void> b = pool.Submit(rendezvous);
  a.get();
  b.get();
  EXPECT_EQ(started, 2);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> failing =
      pool.Submit([] { throw std::runtime_error("trial body failed"); });
  std::future<void> healthy = pool.Submit([] {});
  EXPECT_THROW(failing.get(), std::runtime_error);
  // A throwing task must not poison the pool for later submissions.
  healthy.get();
  pool.Submit([] {}).get();
}

TEST(ThreadPoolTest, QueueDrainsToZeroWhenQuiescent) {
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(pool.Submit([] {}));
  for (auto& f : futures) f.get();
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, OnWorkerThreadOnlyInsideTasks) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  bool inside = false;
  pool.Submit([&inside] { inside = ThreadPool::OnWorkerThread(); }).get();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> executed{0};
  pool.Submit([&executed] { executed.fetch_add(1); }).get();
  EXPECT_EQ(executed.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // Every submitted future must complete even if the pool is destroyed
  // immediately after submission — the workers drain before joining.
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&executed] { executed.fetch_add(1); });
    }
  }
  EXPECT_EQ(executed.load(), 100);
}

// Pinned regression: spans opened inside a pool task must report the span
// that was open at Submit() as their parent. The original per-thread stack
// held raw name pointers and never crossed threads, so a task's spans came
// up as parentless roots (or, worse, picked up whatever span happened to be
// open on the worker). Submit() now captures a TraceContext and the worker
// adopts it.
TEST(ThreadPoolTest, SubmitPropagatesTraceContextToWorkers) {
  const bool was_enabled = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  {
    ThreadPool pool(2);
    obs::TraceSpan outer("pool_test.submit_outer");
    ASSERT_NE(outer.span_id(), 0u);

    std::uint64_t child_parent_id = 0;
    int worker_depth = -1;
    pool.Submit([&child_parent_id, &worker_depth] {
      worker_depth = obs::TraceSpan::CurrentDepth();
      obs::TraceSpan child("pool_test.submit_child");
      child_parent_id = child.parent_id();
    }).get();

    EXPECT_EQ(worker_depth, 1);  // exactly the adopted frame, nothing stale
    EXPECT_EQ(child_parent_id, outer.span_id());
  }
  obs::SetTracingEnabled(was_enabled);
}

// With no span open at Submit(), worker spans stay roots — adoption of an
// empty context must not invent a parent.
TEST(ThreadPoolTest, SubmitWithoutOpenSpanLeavesWorkerSpansRooted) {
  const bool was_enabled = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  {
    ThreadPool pool(2);
    std::uint64_t child_parent_id = 42;
    pool.Submit([&child_parent_id] {
      obs::TraceSpan child("pool_test.rooted_child");
      child_parent_id = child.parent_id();
    }).get();
    EXPECT_EQ(child_parent_id, 0u);
  }
  obs::SetTracingEnabled(was_enabled);
}

TEST(ThreadPoolTest, MetricsBalanceAfterQuiescence) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Gauge* depth = obs::GlobalMetrics().GetGauge("pool.queue_depth");
  obs::Histogram* task_us = obs::GlobalMetrics().GetHistogram("pool.task.us");
  depth->Reset();
  const std::uint64_t tasks_before = task_us->GetSnapshot().count;
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) futures.push_back(pool.Submit([] {}));
    for (auto& f : futures) f.get();
  }
  // Every +1 on submit is matched by a -1 on dequeue once the pool drains.
  EXPECT_DOUBLE_EQ(depth->Value(), 0.0);
  EXPECT_EQ(task_us->GetSnapshot().count, tasks_before + 32);
  obs::SetMetricsEnabled(was_enabled);
}

TEST(ThreadCountTest, ParsesWholeNumbersAndFallsBackOnTheRest) {
  // Only the parse runs here: no pool of the parsed size is ever started.
  struct Case {
    const char* env;
    std::size_t hardware;
    std::size_t want;
    bool warns;
  };
  const Case cases[] = {
      {nullptr, 6, 6, false},
      {"", 6, 6, false},
      {nullptr, 0, 1, false},
      {nullptr, 100000, kMaxThreads, false},
      {"1", 6, 1, false},
      {"8", 6, 8, false},
      {"256", 6, 256, false},
      {"257", 6, kMaxThreads, true},
      {"80000", 6, kMaxThreads, true},
      {"99999999999999999999999999", 6, kMaxThreads, true},
      {"0", 6, 1, true},
      {"8x", 6, 6, true},
      {"abc", 6, 6, true},
      {"-2", 6, 6, true},
      {" 4", 6, 6, true},
      {"4 ", 6, 6, true},
      {"+4", 6, 6, true},
      {"abc", 0, 1, true},
  };
  for (const Case& c : cases) {
    const std::string label = c.env == nullptr ? "(unset)" : "'" + std::string(c.env) + "'";
    const ThreadCountChoice choice = ParseThreadCount(c.env, c.hardware);
    EXPECT_EQ(choice.count, c.want) << label << " on " << c.hardware << " hardware threads";
    EXPECT_EQ(!choice.warning.empty(), c.warns) << label << ": " << choice.warning;
  }
}

}  // namespace
}  // namespace parallel
}  // namespace dplearn
