#include "robustness/retry.h"

#include <chrono>

#include <gtest/gtest.h>

#include "util/status.h"

namespace dplearn {
namespace robustness {
namespace {

TEST(RetryPolicyTest, SucceedsFirstTry) {
  RetryPolicy policy;
  int calls = 0;
  const Status status = policy.Run([&calls] {
    ++calls;
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(policy.last_attempts(), 1);
  EXPECT_EQ(policy.last_total_backoff().count(), 0);
}

TEST(RetryPolicyTest, RetriesUnavailableUntilSuccess) {
  RetryPolicy policy;
  int calls = 0;
  const Status status = policy.Run([&calls] {
    ++calls;
    return calls < 3 ? UnavailableError("transient") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(policy.last_attempts(), 3);
}

TEST(RetryPolicyTest, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy;
  int calls = 0;
  const Status status = policy.Run([&calls] {
    ++calls;
    return UnavailableError("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, RetryPolicy::kMaxAttempts);
  EXPECT_EQ(policy.last_attempts(), RetryPolicy::kMaxAttempts);
}

TEST(RetryPolicyTest, NonRetryableErrorReturnsImmediately) {
  RetryPolicy policy;
  int calls = 0;
  const Status status = policy.Run([&calls] {
    ++calls;
    return InvalidArgumentError("permanent");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(policy.last_total_backoff().count(), 0);
}

TEST(RetryPolicyTest, IsRetryableOnlyForUnavailable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(UnavailableError("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(InternalError("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(InvalidArgumentError("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Ok()));
}

TEST(RetryPolicyTest, BackoffFollowsTheFixedSchedule) {
  RetryPolicy policy;
  policy.Run([] { return UnavailableError("down"); });
  // Four attempts sleep 100 + 200 + 400 us between them.
  EXPECT_EQ(policy.last_total_backoff(), std::chrono::microseconds(700));
  int calls = 0;
  policy.Run([&calls] { return ++calls < 3 ? UnavailableError("down") : Status::Ok(); });
  EXPECT_EQ(policy.last_total_backoff(), std::chrono::microseconds(300));
}

}  // namespace
}  // namespace robustness
}  // namespace dplearn
