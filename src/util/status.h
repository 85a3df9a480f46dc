// Status and Result<T>: exception-free error handling across library
// boundaries, in the style of RocksDB/Abseil.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace useful {

/// Outcome of an operation that can fail.
///
/// A Status is either OK or carries an error code plus a human-readable
/// message. Library functions that can fail return Status (or Result<T>,
/// below) instead of throwing; exceptions never cross the public API.
class Status {
 public:
  /// Error taxonomy. Keep coarse: callers branch on "what kind of failure",
  /// not on specific causes (those go in the message).
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kOutOfRange,
    kFailedPrecondition,
    kCorruption,
    kIOError,
    kInternal,
    kDeadlineExceeded,
    kUnavailable,
  };

  /// Default-constructed Status is OK.
  Status() : code_(Code::kOk) {}

  /// Returns an OK status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }

  /// Error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Inverse of ToString for an error: "<CodeName>" or "<CodeName>:
  /// <message>" back to the Status that printed it. nullopt when `text`
  /// does not start with the name of an error code.
  static std::optional<Status> FromString(std::string_view text);

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// A value-or-error pair. Either holds a T (status().ok()) or an error
/// Status. Access to value() on an error Result is a programming bug and
/// asserts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit from a value: success.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from a non-OK status: failure. Constructing from an OK status
  /// without a value is a bug.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the contained value or `fallback` when this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Propagates a non-OK Status from an expression to the caller.
#define USEFUL_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::useful::Status _status = (expr);        \
    if (!_status.ok()) return _status;        \
  } while (false)

}  // namespace useful
