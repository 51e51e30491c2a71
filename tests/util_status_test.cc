#include "util/status.h"

#include <string>

#include <gtest/gtest.h>

namespace dplearn {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, OkStatusDropsMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
}

TEST(StatusTest, ConvenienceConstructors) {
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == InternalError("a"));
}

TEST(StatusCodeTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented), "UNIMPLEMENTED");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgumentError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v.status().message(), "nope");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v = std::string("hello");
  EXPECT_EQ(v->size(), 5u);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status CheckEven(int x) {
  DPLEARN_ASSIGN_OR_RETURN(int half, Half(x));
  if (half < 0) return OutOfRangeError("negative");
  return Status::Ok();
}

TEST(StatusMacroTest, AssignOrReturnPropagatesError) {
  EXPECT_TRUE(CheckEven(4).ok());
  EXPECT_EQ(CheckEven(3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckEven(-4).code(), StatusCode::kOutOfRange);
}

Status ReturnIfErrorHelper(bool fail) {
  DPLEARN_RETURN_IF_ERROR(fail ? InternalError("inner") : Status::Ok());
  return NotFoundError("outer");
}

TEST(StatusMacroTest, ReturnIfError) {
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kInternal);
  EXPECT_EQ(ReturnIfErrorHelper(false).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dplearn
