#include "parallel/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>

#include "obs/trace.h"

namespace dplearn {
namespace parallel {

void ParallelTrialRunner::ForIndex(std::size_t n,
                                   const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  // Inline when there is no pool, nothing to fan out, or we are already on
  // a pool worker (a blocked worker waiting on tasks only other workers can
  // run is a deadlock with one thread and a throughput bug with many).
  if (pool_ == nullptr || pool_->num_threads() <= 1 || n == 1 ||
      ThreadPool::OnWorkerThread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  obs::TraceSpan span("pool.batch");
  // One task per worker; each claims blocks of consecutive indices from a
  // shared counter until none is left, so a preempted worker holds back
  // only the block it is in. About 64 blocks per worker keep the claims
  // rare and the tail short. Block geometry affects only scheduling, never
  // results: every index writes its own slot and reductions happen on the
  // caller's side in index order.
  const std::size_t workers = std::min(n, pool_->num_threads());
  const std::size_t block = std::max<std::size_t>(1, n / (64 * workers));
  const std::size_t num_blocks = (n + block - 1) / block;
  std::atomic<std::size_t> next_block{0};
  std::atomic<bool> failed{false};
  // The lowest failing block and the exception it threw.
  std::mutex error_mu;
  std::size_t error_block = num_blocks;
  std::exception_ptr block_error;
  const auto work = [&] {
    // After a failure no new block starts. Blocks are claimed in index
    // order, so every block below a failing one was claimed before the
    // failure and still runs: the lowest failing index always surfaces.
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t b = next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      const std::size_t end = std::min(n, (b + 1) * block);
      try {
        for (std::size_t i = b * block; i < end; ++i) fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu);
        if (b < error_block) {
          error_block = b;
          block_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) futures.push_back(pool_->Submit(work));
  // Wait for every worker before rethrowing: they reference this frame. A
  // task that failed before its body ran (the `pool.task` fail point)
  // claimed no block; its exception surfaces only when no block failed.
  std::exception_ptr task_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (task_error == nullptr) task_error = std::current_exception();
    }
  }
  if (block_error != nullptr) std::rethrow_exception(block_error);
  if (task_error != nullptr) std::rethrow_exception(task_error);
}

}  // namespace parallel
}  // namespace dplearn
