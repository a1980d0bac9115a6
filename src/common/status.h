#ifndef POLARDB_IMCI_COMMON_STATUS_H_
#define POLARDB_IMCI_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace imci {

/// Error/result codes used across the library. Following the idiom of
/// RocksDB/Arrow, fallible operations return a `Status` instead of throwing:
/// exceptions are never used on hot paths.
enum class Code {
  kOk = 0,
  kNotFound,
  kCorruption,
  kInvalidArgument,
  kAborted,        // transaction aborted (deadlock timeout, explicit abort)
  kBusy,           // lock wait timeout / resource busy
  kOutOfRange,
  kNotSupported,
  kIOError,
  kInternal,
};

/// Lightweight status object: a code plus an optional message. `Status::OK()`
/// carries no allocation. Check with `ok()`; propagate with
/// `IMCI_RETURN_NOT_OK(expr)`.
///
/// `[[nodiscard]]`: silently dropping a Status is how fsync and append
/// errors used to vanish (several call sites did, pre fault-injection).
/// A site that genuinely doesn't care — best-effort cleanup, accounting-only
/// sync — must say so with an explicit `(void)` cast.
class [[nodiscard]] Status {
 public:
  Status() : code_(Code::kOk) {}
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(Code::kNotFound, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(Code::kCorruption, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(Code::kInvalidArgument, std::move(m));
  }
  static Status Aborted(std::string m = "") {
    return Status(Code::kAborted, std::move(m));
  }
  static Status Busy(std::string m = "") {
    return Status(Code::kBusy, std::move(m));
  }
  static Status OutOfRange(std::string m = "") {
    return Status(Code::kOutOfRange, std::move(m));
  }
  static Status NotSupported(std::string m = "") {
    return Status(Code::kNotSupported, std::move(m));
  }
  static Status IOError(std::string m = "") {
    return Status(Code::kIOError, std::move(m));
  }
  static Status Internal(std::string m = "") {
    return Status(Code::kInternal, std::move(m));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable rendering, e.g. "NotFound: key 42".
  std::string ToString() const;

 private:
  Code code_;
  std::string msg_;
};

#define IMCI_RETURN_NOT_OK(expr)          \
  do {                                    \
    ::imci::Status _s = (expr);           \
    if (!_s.ok()) return _s;              \
  } while (0)

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_STATUS_H_
