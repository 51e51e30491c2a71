#ifndef DPLEARN_PARALLEL_THREAD_POOL_H_
#define DPLEARN_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dplearn {
namespace parallel {

/// A fixed-size FIFO thread pool — deliberately work-stealing-free so task
/// dispatch order is easy to reason about. Tasks are submitted as
/// std::function<void()>; Submit returns a future that becomes ready when
/// the task finishes and rethrows any exception the task threw (exception
/// propagation via std::packaged_task).
///
/// The pool never executes a task on the submitting thread; determinism in
/// this library never comes from scheduling (which is nondeterministic by
/// nature) but from how work is *assigned* — see trial_runner.h for the
/// contract that makes results independent of thread count.
///
/// Instrumentation (when obs metrics are enabled):
///   pool.queue_depth  gauge      tasks submitted but not yet started
///   pool.task.us      histogram  per-task execution wall time
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t num_threads);
  /// Waits for queued tasks to drain, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the returned future rethrows the task's exception (if
  /// any) from get(). Submitting after destruction has begun is a
  /// programming error (the destructor is only entered once every user of
  /// the pool is done with it).
  std::future<void> Submit(std::function<void()> task);

  std::size_t num_threads() const { return threads_.size(); }

  /// Tasks submitted but not yet picked up by a worker. Approximate under
  /// concurrent submission; exact when quiescent.
  std::size_t QueueDepth() const;

  /// True when called from inside one of this process's pool worker threads
  /// (any pool). Used to run nested parallel regions inline instead of
  /// deadlocking the pool by blocking a worker on tasks no free worker can
  /// run.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// The most threads DPLEARN_THREADS can ask for, well above any real host
/// this library targets: a typo such as 80000 gets this many, not 80 000.
inline constexpr std::size_t kMaxThreads = 256;

/// What DPLEARN_THREADS asks for, and the WARN to log when it cannot be
/// taken as written (empty otherwise).
struct ThreadCountChoice {
  std::size_t count = 1;
  std::string warning;
};

/// Pure parse of DPLEARN_THREADS (`env`, nullptr when unset) on a host with
/// `hardware` hardware threads (0 when unknown):
///   - unset or empty: hardware, capped at kMaxThreads (1 when unknown);
///   - a whole decimal number in [1, kMaxThreads]: that number;
///   - above kMaxThreads: kMaxThreads, with a warning;
///   - 0: 1, so the pool is off and trials run inline, with a warning;
///   - anything else ("8x", "abc", "-2", " 4"): as if unset, with a warning.
ThreadCountChoice ParseThreadCount(const char* env, std::size_t hardware);

/// Number of worker threads the process-wide pool uses:
/// ParseThreadCount(DPLEARN_THREADS, hardware concurrency), read once; its
/// warning, if any, is logged once at WARN.
std::size_t DefaultThreadCount();

/// The process-wide pool shared by library hot paths and the experiment
/// harness, constructed on first use with DefaultThreadCount() workers.
/// Returns nullptr when DefaultThreadCount() == 1 — callers fall back to
/// inline execution, so DPLEARN_THREADS=1 runs with no threads at all.
ThreadPool* GlobalThreadPool();

}  // namespace parallel
}  // namespace dplearn

#endif  // DPLEARN_PARALLEL_THREAD_POOL_H_
