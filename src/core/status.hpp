// geo::Status / geo::StatusOr — structured, recoverable errors for the
// "expected failure" paths of the stack (shape mismatches, corrupted
// artifacts), as opposed to programming errors which keep throwing.
//
// Conventions (see README "Error handling"):
//   * APIs named `try_*` or `validate*` return Status/StatusOr and never
//     throw on bad input.
//   * Legacy throwing APIs (`run_conv`, ...) are kept for convenience and
//     are implemented on top of the Status layer; the exception message is
//     the Status message.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace geo {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller passed malformed input
  kFailedPrecondition, // object/system state does not allow the operation
  kOutOfRange,         // value outside its representable/legal range
  kDataLoss,           // results were produced but are unusable (fail closed)
  kInternal,           // invariant violation inside the library
  kResourceExhausted,  // a bounded resource (queue slot, quota) was refused
  kDeadlineExceeded,   // the request's deadline expired before completion
  kUnavailable,        // the serving component is not accepting work
};

const char* to_string(StatusCode code) noexcept;

class Status {
 public:
  Status() = default;  // OK

  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status failed_precondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status out_of_range(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status data_loss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status resource_exhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status deadline_exceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  // "<code>: <message>" (or "ok").
  std::string to_string() const;

  bool operator==(const Status& rhs) const = default;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Value-or-error. `value()` on an error state throws std::logic_error (that
// is a caller bug, not an expected failure). T need not be
// default-constructible (move-only execution handles are stored too).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok())
      status_ = Status::internal("StatusOr constructed from OK status");
  }
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const noexcept { return status_.ok(); }
  const Status& status() const noexcept { return status_; }

  T& value() & {
    check();
    return *value_;
  }
  const T& value() const& {
    check();
    return *value_;
  }
  T&& value() && {
    check();
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void check() const {
    if (!status_.ok())
      throw std::logic_error("StatusOr::value on error: " +
                             status_.to_string());
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace geo
