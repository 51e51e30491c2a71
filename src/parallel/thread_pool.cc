#include "parallel/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robustness/failpoint.h"

namespace dplearn {
namespace parallel {
namespace {

thread_local bool t_on_worker_thread = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  // Cross-thread trace propagation: capture the submitter's innermost open
  // span here and adopt it on the worker, so spans the task opens report
  // the submitting span as their parent (by process-unique id) instead of
  // silently becoming roots. Capture happens at submit time — the parent is
  // whatever was open when the work was scheduled, which is the causal link
  // a trace viewer should draw.
  if (obs::TracingEnabled()) {
    task = [context = obs::TraceContext::Capture(), inner = std::move(task)] {
      obs::ScopedTraceContext adopt(context);
      inner();
    };
  }
  // Chaos hook: `pool.task` makes the task throw on the worker before its
  // body runs; the exception is captured into the future like any task
  // failure, which is exactly the propagation path being exercised. The
  // fail point is evaluated at run time (not submit time) so cancellation
  // and ordering behave like a real mid-flight task failure.
  if (robustness::FailPointsEnabled()) {
    task = [inner = std::move(task)] {
      if (robustness::ShouldFail("pool.task")) {
        throw std::runtime_error("injected fault at 'pool.task'");
      }
      inner();
    };
  }
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(packaged));
  }
  if (obs::MetricsEnabled()) {
    static obs::Gauge* const depth = obs::GlobalMetrics().GetGauge("pool.queue_depth");
    depth->Add(1.0);
  }
  cv_.notify_one();
  return future;
}

std::size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

void ThreadPool::WorkerLoop() {
  t_on_worker_thread = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before stopping so every submitted future completes.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (obs::MetricsEnabled()) {
      static obs::Gauge* const depth = obs::GlobalMetrics().GetGauge("pool.queue_depth");
      static obs::Histogram* const task_us = obs::GlobalMetrics().GetHistogram("pool.task.us");
      depth->Add(-1.0);
      const auto start = std::chrono::steady_clock::now();
      task();  // packaged_task captures exceptions into the future
      task_us->Observe(
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
              .count());
    } else {
      task();
    }
  }
}

std::size_t DefaultThreadCount() {
  static const std::size_t count = [] {
    const char* env = std::getenv("DPLEARN_THREADS");
    if (env != nullptr && *env != '\0') {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
      return static_cast<std::size_t>(1);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return count;
}

ThreadPool* GlobalThreadPool() {
  // Leaked intentionally: worker threads must outlive every static consumer,
  // and joining at an unspecified point during static destruction is worse
  // than letting the OS reclaim them.
  static ThreadPool* const pool =
      DefaultThreadCount() > 1 ? new ThreadPool(DefaultThreadCount()) : nullptr;
  return pool;
}

}  // namespace parallel
}  // namespace dplearn
