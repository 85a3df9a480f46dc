#include "util/status.h"

#include <gtest/gtest.h>

#include <optional>

namespace useful {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, OkFactoryEqualsDefault) {
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    Status::Code code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("bad"), Status::Code::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("bad"), Status::Code::kNotFound, "NotFound"},
      {Status::OutOfRange("bad"), Status::Code::kOutOfRange, "OutOfRange"},
      {Status::FailedPrecondition("bad"), Status::Code::kFailedPrecondition,
       "FailedPrecondition"},
      {Status::Corruption("bad"), Status::Code::kCorruption, "Corruption"},
      {Status::IOError("bad"), Status::Code::kIOError, "IOError"},
      {Status::Internal("bad"), Status::Code::kInternal, "Internal"},
      {Status::DeadlineExceeded("bad"), Status::Code::kDeadlineExceeded,
       "DeadlineExceeded"},
      {Status::Unavailable("bad"), Status::Code::kUnavailable, "Unavailable"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "bad");
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": bad");
  }
}

TEST(StatusTest, FromStringInvertsToString) {
  for (const Status& status :
       {Status::InvalidArgument("bad: x"), Status::NotFound(""),
        Status::OutOfRange("k"), Status::FailedPrecondition("f"),
        Status::Corruption("c"), Status::IOError("io"),
        Status::Internal("i"), Status::DeadlineExceeded("idle timeout"),
        Status::Unavailable("overloaded")}) {
    std::optional<Status> parsed = Status::FromString(status.ToString());
    ASSERT_TRUE(parsed.has_value()) << status.ToString();
    EXPECT_EQ(*parsed, status);
  }
  // Only error codes are named back; anything else is unknown.
  EXPECT_FALSE(Status::FromString("OK").has_value());
  EXPECT_FALSE(Status::FromString("Exploded: x").has_value());
  EXPECT_FALSE(Status::FromString("NotFound:x").has_value());
  EXPECT_FALSE(Status::FromString("").has_value());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, MutableValueAccess) {
  Result<std::string> r(std::string("a"));
  r.value() += "b";
  EXPECT_EQ(r.value(), "ab");
}

Status FailingHelper() { return Status::IOError("disk"); }

Status UsesReturnIfError() {
  USEFUL_RETURN_IF_ERROR(FailingHelper());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = UsesReturnIfError();
  EXPECT_EQ(s.code(), Status::Code::kIOError);
}

Status UsesReturnIfErrorOkPath() {
  USEFUL_RETURN_IF_ERROR(Status::OK());
  return Status::Internal("reached");
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  EXPECT_EQ(UsesReturnIfErrorOkPath().code(), Status::Code::kInternal);
}

}  // namespace
}  // namespace useful
