#include "robustness/retry.h"

#include <thread>

namespace dplearn {
namespace robustness {
namespace {

constexpr std::chrono::microseconds kInitialBackoff{100};

}  // namespace

Status RetryPolicy::Run(const std::function<Status()>& fn) {
  last_attempts_ = 0;
  last_total_backoff_ = std::chrono::microseconds{0};
  std::chrono::microseconds backoff = kInitialBackoff;
  Status status;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++last_attempts_;
    status = fn();
    if (status.ok() || !IsRetryable(status)) return status;
    if (attempt + 1 == kMaxAttempts) break;
    std::this_thread::sleep_for(backoff);
    last_total_backoff_ += backoff;
    backoff *= 2;
  }
  return status;
}

}  // namespace robustness
}  // namespace dplearn
