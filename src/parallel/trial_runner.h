#ifndef DPLEARN_PARALLEL_TRIAL_RUNNER_H_
#define DPLEARN_PARALLEL_TRIAL_RUNNER_H_

#include <cstddef>
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
///     caller's base Rng. The runner performs all N splits up front, on the
///     calling thread, in trial order — so which random stream a trial sees
///     depends only on the base seed and its trial index, never on which
///     worker runs it or when.
///
///  2. Ordered reduction. Results land in a slot per trial index and any
///     reduction folds the returned vector in trial order, never in
///     completion order. Floating-point addition is not associative;
///     completion-order reduction would make results depend on scheduling.
///
/// Exception propagation: if trial bodies throw, one of the thrown
/// exceptions (the earliest in index order among the chunks that failed) is
/// rethrown on the calling thread, and only after every in-flight trial has
/// finished — no detached work remains.
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
    std::vector<Rng> rngs = SplitPerTrial(num_trials, base_rng);
    std::vector<T> out(num_trials);
    ForIndex(num_trials, [&out, &rngs, &body](std::size_t t) { out[t] = body(t, rngs[t]); });
    return out;
  }

  /// The stream-assignment half of the contract, reusable on its own: the
  /// N per-trial generators, split in trial order on the calling thread.
  static std::vector<Rng> SplitPerTrial(std::size_t num_trials, Rng* base_rng) {
    std::vector<Rng> rngs;
    rngs.reserve(num_trials);
    for (std::size_t t = 0; t < num_trials; ++t) rngs.push_back(base_rng->Split());
    return rngs;
  }

 private:
  ThreadPool* pool_;
};

}  // namespace parallel
}  // namespace dplearn

#endif  // DPLEARN_PARALLEL_TRIAL_RUNNER_H_
