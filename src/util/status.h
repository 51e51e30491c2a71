#ifndef DPLEARN_UTIL_STATUS_H_
#define DPLEARN_UTIL_STATUS_H_

#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace dplearn {

/// Canonical error codes, modeled on the subset of absl::StatusCode the
/// library actually needs. Fallible public APIs return Status / StatusOr<T>
/// instead of throwing; exceptions never cross the library boundary.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotFound = 4,
  kInternal = 5,
  kUnimplemented = 6,
  /// A transient failure (sink write, file I/O, injected fault) that a
  /// RetryPolicy may retry; see src/robustness and DESIGN.md §9.
  kUnavailable = 7,
  /// A quota was exhausted — most prominently a tenant's privacy budget at
  /// the release-service admission boundary (DESIGN.md §13). Unlike
  /// kFailedPrecondition (which the accountant itself returns for an
  /// over-budget spend), this code tells a *client* that retrying the same
  /// request cannot succeed until its quota is raised.
  kResourceExhausted = 8,
};

/// Returns a stable human-readable name for `code` (e.g. "INVALID_ARGUMENT").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result. Cheap to copy on the OK path (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and a diagnostic `message`.
  /// `code` must not be kOk when a message is meaningful; an OK status
  /// always carries an empty message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string() : std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Returns an OK status.
  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "CODE: message" for diagnostics.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Convenience constructors for the common error codes.
Status InvalidArgumentError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status NotFoundError(std::string message);
Status InternalError(std::string message);
Status UnavailableError(std::string message);
Status ResourceExhaustedError(std::string message);

/// A value-or-error result. Accessing the value of a non-OK StatusOr aborts
/// the process (programming error), mirroring absl::StatusOr semantics.
template <typename T>
class StatusOr {
 public:
  /// Constructs from a value (implicit, so functions can `return value;`).
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Constructs from a non-OK status (implicit, so functions can
  /// `return InvalidArgumentError(...);`). Aborts if `status` is OK, since
  /// an OK StatusOr must carry a value.
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (std::get<Status>(rep_).ok()) std::abort();
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// Returns the status: OK when a value is held.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(rep_);
  }

  /// Returns the held value; aborts if this holds an error.
  const T& value() const& {
    if (!ok()) std::abort();
    return std::get<T>(rep_);
  }
  T& value() & {
    if (!ok()) std::abort();
    return std::get<T>(rep_);
  }
  T&& value() && {
    if (!ok()) std::abort();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> rep_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if not OK.
#define DPLEARN_RETURN_IF_ERROR(expr)                \
  do {                                               \
    ::dplearn::Status _dplearn_status = (expr);      \
    if (!_dplearn_status.ok()) return _dplearn_status; \
  } while (false)

/// Evaluates `rexpr` (a StatusOr<T> expression); on error returns the status,
/// otherwise moves the value into `lhs`.
#define DPLEARN_ASSIGN_OR_RETURN(lhs, rexpr)            \
  auto DPLEARN_CONCAT_(_dplearn_sor_, __LINE__) = (rexpr); \
  if (!DPLEARN_CONCAT_(_dplearn_sor_, __LINE__).ok())   \
    return DPLEARN_CONCAT_(_dplearn_sor_, __LINE__).status(); \
  lhs = std::move(DPLEARN_CONCAT_(_dplearn_sor_, __LINE__)).value()

#define DPLEARN_CONCAT_IMPL_(a, b) a##b
#define DPLEARN_CONCAT_(a, b) DPLEARN_CONCAT_IMPL_(a, b)

}  // namespace dplearn

#endif  // DPLEARN_UTIL_STATUS_H_
