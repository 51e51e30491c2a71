#ifndef DPLEARN_ROBUSTNESS_RETRY_H_
#define DPLEARN_ROBUSTNESS_RETRY_H_

#include <chrono>
#include <functional>

#include "util/status.h"

namespace dplearn {
namespace robustness {

/// Bounded exponential backoff around a Status-returning operation, on one
/// fixed schedule sized for sub-millisecond local I/O (sink writes, record
/// files): kMaxAttempts attempts, sleeping 100 µs before the first retry and
/// twice as long before each later one (100, 200, 400 µs).
///
/// Only UNAVAILABLE errors (transient by the DESIGN.md §9 taxonomy) are
/// retried; everything else is returned immediately.
class RetryPolicy {
 public:
  /// Total attempts including the first.
  static constexpr int kMaxAttempts = 4;

  /// Runs `fn` until it returns OK, a non-retryable error, or attempts are
  /// exhausted; returns the last Status either way.
  Status Run(const std::function<Status()>& fn);

  /// True for the errors the policy retries (UNAVAILABLE).
  static bool IsRetryable(const Status& status) {
    return status.code() == StatusCode::kUnavailable;
  }

  /// Attempts consumed by the most recent Run (0 before any Run).
  int last_attempts() const { return last_attempts_; }

  /// Total backoff slept by the most recent Run.
  std::chrono::microseconds last_total_backoff() const { return last_total_backoff_; }

 private:
  int last_attempts_ = 0;
  std::chrono::microseconds last_total_backoff_{0};
};

}  // namespace robustness
}  // namespace dplearn

#endif  // DPLEARN_ROBUSTNESS_RETRY_H_
