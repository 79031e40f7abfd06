// Error-handling primitives. Protocol code does not use exceptions; fallible operations
// return Status or Result<T>.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace lazylog {

// Error category for a failed operation. Kept deliberately small; detail goes in the message.
enum class StatusCode {
  kOk = 0,
  kTimeout,        // operation did not complete within its deadline
  kUnavailable,    // target crashed, sealed, or otherwise not serving
  kWrongView,      // request carried a stale view number
  kSealed,         // replica is sealed; no new appends in this view
  kOutOfRange,     // position beyond the durable log / trimmed prefix
  kDuplicate,      // request already executed (filtered)
  kRejected,       // request refused (e.g. late Erwin-st data after no-op)
  kNotLeader,      // request needs the sequencing leader
  kStaleView,      // fenced: the receiver has sealed into a newer epoch
  kInternal,       // invariant violation or unexpected state
  kInvalidArgument,
  kOverloaded,     // admission control refused the append; retry after backoff
  kQuotaExceeded,  // per-tenant rate limit refused the append; distinct from overload
};
// The highest code; a wire status byte above it names no StatusCode.
inline constexpr StatusCode kLastStatusCode = StatusCode::kQuotaExceeded;

// Human-readable name for a StatusCode (for logs and test failure messages).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kTimeout: return "TIMEOUT";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kWrongView: return "WRONG_VIEW";
    case StatusCode::kSealed: return "SEALED";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kDuplicate: return "DUPLICATE";
    case StatusCode::kRejected: return "REJECTED";
    case StatusCode::kNotLeader: return "NOT_LEADER";
    case StatusCode::kStaleView: return "STALE_VIEW";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kOverloaded: return "OVERLOADED";
    case StatusCode::kQuotaExceeded: return "QUOTA_EXCEEDED";
  }
  return "UNKNOWN";
}

// Value-semantic status: either OK or a code plus message.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Timeout(std::string m = "timeout") { return {StatusCode::kTimeout, std::move(m)}; }
  static Status Unavailable(std::string m = "unavailable") {
    return {StatusCode::kUnavailable, std::move(m)};
  }
  static Status WrongView(std::string m = "wrong view") {
    return {StatusCode::kWrongView, std::move(m)};
  }
  static Status Sealed(std::string m = "sealed") { return {StatusCode::kSealed, std::move(m)}; }
  static Status OutOfRange(std::string m = "out of range") {
    return {StatusCode::kOutOfRange, std::move(m)};
  }
  static Status Duplicate(std::string m = "duplicate") {
    return {StatusCode::kDuplicate, std::move(m)};
  }
  static Status Rejected(std::string m = "rejected") {
    return {StatusCode::kRejected, std::move(m)};
  }
  static Status NotLeader(std::string m = "not leader") {
    return {StatusCode::kNotLeader, std::move(m)};
  }
  static Status StaleView(std::string m = "stale view") {
    return {StatusCode::kStaleView, std::move(m)};
  }
  static Status Internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }
  static Status Overloaded(std::string m = "overloaded") {
    return {StatusCode::kOverloaded, std::move(m)};
  }
  static Status QuotaExceeded(std::string m = "quota exceeded") {
    return {StatusCode::kQuotaExceeded, std::move(m)};
  }
  static Status InvalidArgument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Result<T>: a Status or a value. Minimal StatusOr-alike sufficient for this codebase.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "OK Result must carry a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T&& take() {
    assert(ok());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace lazylog

#endif  // SRC_COMMON_STATUS_H_
