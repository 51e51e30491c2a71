#ifndef DPLEARN_PARALLEL_TRIAL_RUNNER_H_
#define DPLEARN_PARALLEL_TRIAL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/thread_pool.h"
#include "sampling/rng.h"

namespace dplearn {
namespace parallel {

/// Maps N Monte-Carlo trials over a ThreadPool with a determinism contract:
/// results are bit-identical regardless of thread count (including the
/// no-pool inline path).
///
/// The contract has two halves, and both matter:
///
///  1. Stream assignment. Trial t always consumes the t-th Split() of the
///     caller's base Rng. The runner draws the N seeds up front, on the
///     calling thread, in trial order — one NextUint64() per trial, which
///     is exactly what Split() draws — and each worker seeds Rng(seed_t)
///     itself, which is exactly the generator Split() returns. So which
///     random stream a trial sees depends only on the base seed and its
///     trial index, never on which worker runs it or when.
///
///  2. Ordered reduction. Results land in a slot per trial index and any
///     reduction folds the returned vector in trial order, never in
///     completion order. Floating-point addition is not associative;
///     completion-order reduction would make results depend on scheduling.
///
/// Scheduling: one task per pool worker, each claiming blocks of about
/// n/(64·workers) consecutive indices from a shared counter until none is
/// left. A preempted or slow worker therefore delays only the block it
/// holds, not a fixed share of the call.
///
/// Exception propagation: if trial bodies throw, the exception of the
/// lowest-indexed failing trial is rethrown on the calling thread, and only
/// after every worker has returned — no detached work remains. Once a
/// block fails, no new block starts; blocks below it were claimed earlier
/// and still run, which is why the lowest failing index always surfaces.
///
/// Nested use is safe: a runner invoked from inside a pool worker executes
/// inline (same results, by the contract above) instead of blocking a
/// worker on tasks that may never be scheduled.
class ParallelTrialRunner {
 public:
  /// Uses the process-wide pool (inline execution when that is null,
  /// i.e. DPLEARN_THREADS=1).
  ParallelTrialRunner() : pool_(GlobalThreadPool()) {}
  /// Uses `pool`; pass nullptr to force inline execution.
  explicit ParallelTrialRunner(ThreadPool* pool) : pool_(pool) {}

  /// Worker count this runner will fan out over (1 = inline).
  std::size_t num_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_threads();
  }

  /// Runs fn(i) for every i in [0, n), each exactly once, possibly
  /// concurrently. fn must touch only per-index state. Exceptions are
  /// propagated per the class contract.
  void ForIndex(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// Deterministic parallel map over pure (non-random) work items; out[i] =
  /// body(i). T must be default-constructible.
  template <typename T, typename Body>
  std::vector<T> Map(std::size_t n, Body&& body) const {
    std::vector<T> out(n);
    ForIndex(n, [&out, &body](std::size_t i) { out[i] = body(i); });
    return out;
  }

  /// Deterministic parallel map over randomized trials; out[t] =
  /// body(t, rng_t) where rng_t is the t-th Split() of *base_rng. The base
  /// generator is advanced exactly N splits, as if the trials had run
  /// serially.
  template <typename T, typename Body>
  std::vector<T> MapTrials(std::size_t num_trials, Rng* base_rng, Body&& body) const {
    // Split() is Rng(NextUint64()): draw the seeds here in trial order and
    // build each generator on the worker that runs its trial.
    std::vector<std::uint64_t> seeds(num_trials);
    for (std::uint64_t& seed : seeds) seed = base_rng->NextUint64();
    std::vector<T> out(num_trials);
    ForIndex(num_trials, [&out, &seeds, &body](std::size_t t) {
      Rng rng(seeds[t]);
      out[t] = body(t, rng);
    });
    return out;
  }

 private:
  ThreadPool* pool_;
};

}  // namespace parallel
}  // namespace dplearn

#endif  // DPLEARN_PARALLEL_TRIAL_RUNNER_H_
