#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace pcor {

/// \brief Error categories used across the library.
///
/// The library does not throw exceptions: fallible operations return a
/// Status (or a Result<T>, see result.h) in the style of RocksDB/Arrow.
/// PcorServer keeps this at its boundary too: a micro-batch that throws
/// completes every future of the batch with a kInternal entry.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kNotImplemented = 7,
  kIOError = 8,
  kPrivacyBudgetExceeded = 9,
  kNoValidContext = 10,
  kResourceExhausted = 11,
  kUnavailable = 12,
};

/// \brief Returns a stable human-readable name for a status code.
std::string_view StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy in the OK
/// case (no allocation) and carry a message otherwise.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status PrivacyBudgetExceeded(std::string msg) {
    return Status(StatusCode::kPrivacyBudgetExceeded, std::move(msg));
  }
  static Status NoValidContext(std::string msg) {
    return Status(StatusCode::kNoValidContext, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsPrivacyBudgetExceeded() const {
    return code_ == StatusCode::kPrivacyBudgetExceeded;
  }
  bool IsNoValidContext() const {
    return code_ == StatusCode::kNoValidContext;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// \brief "OK" or "<CODE>: <message>".
  std::string ToString() const;

  /// \brief Aborts the process if the status is not OK. Use only where an
  /// error indicates a programming bug, mirroring CHECK-style semantics.
  void CheckOK() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Propagates a non-OK status to the caller.
#define PCOR_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::pcor::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace pcor
