// Status / StatusOr-style error reporting for fallible operations that need
// richer diagnostics than bool/std::optional: an error class, a byte offset
// (for stream parsers) and a human-readable message. No exceptions — errors
// travel by value, matching the repo-wide status-via-return convention.
#ifndef PHTREE_COMMON_STATUS_H_
#define PHTREE_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace phtree {

/// Error classes. The snapshot loader guarantees a stable mapping from
/// corruption kind to class (see serialize.h), which the fault-injection
/// harness asserts on.
enum class StatusCode : uint8_t {
  kOk = 0,
  kIoError,             ///< OS-level failure; message carries the errno text
  kBadMagic,            ///< stream does not start with a known magic
  kUnsupportedVersion,  ///< known magic but a version this build cannot read
  kTruncated,           ///< stream ends before a required field/record
  kHeaderCorrupt,       ///< header CRC mismatch or invalid header field
  kRecordCorrupt,       ///< record CRC mismatch or undecodable record body
  kTrailerCorrupt,      ///< trailer CRC/count mismatch or trailing garbage
  kCountMismatch,       ///< declared entry count != rebuilt tree size
  kStructureInvalid,    ///< rebuilt tree failed ValidatePhTree
  kInvalidArgument,     ///< caller passed an unusable argument
};

/// Stable upper-case name for a code (used in ToString and test output).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kBadMagic: return "BAD_MAGIC";
    case StatusCode::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case StatusCode::kTruncated: return "TRUNCATED";
    case StatusCode::kHeaderCorrupt: return "HEADER_CORRUPT";
    case StatusCode::kRecordCorrupt: return "RECORD_CORRUPT";
    case StatusCode::kTrailerCorrupt: return "TRAILER_CORRUPT";
    case StatusCode::kCountMismatch: return "COUNT_MISMATCH";
    case StatusCode::kStructureInvalid: return "STRUCTURE_INVALID";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
  }
  return "UNKNOWN";
}

/// An error class + optional byte offset + message. Default-constructed is
/// OK; the offset is kNoOffset for errors with no stream position (I/O).
class Status {
 public:
  static constexpr uint64_t kNoOffset = ~uint64_t{0};

  Status() = default;
  Status(StatusCode code, uint64_t offset, std::string message)
      : code_(code), offset_(offset), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Error(StatusCode code, std::string message) {
    return Status(code, kNoOffset, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  bool has_offset() const { return offset_ != kNoOffset; }
  uint64_t offset() const { return offset_; }
  const std::string& message() const { return message_; }

  /// "RECORD_CORRUPT at byte 1234: record 3 CRC mismatch ..." — the full
  /// diagnostic line, suitable for logs and test failure output.
  std::string ToString() const {
    std::string out = StatusCodeName(code_);
    if (has_offset()) {
      out += " at byte " + std::to_string(offset_);
    }
    if (!message_.empty()) {
      out += ": " + message_;
    }
    return out;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  uint64_t offset_ = kNoOffset;
  std::string message_;
};

/// Either a value or an error — a minimal expected<T, E> for move-only T.
/// Implicitly constructible from both sides so `return tree;` and
/// `return Status(...)` both work in a function returning Expected.
template <typename T, typename E = Status>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Expected(E error) : error_(std::move(error)) {}  // NOLINT(runtime/explicit)

  bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return has_value(); }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }
  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

  /// Valid only when !has_value().
  const E& error() const { return error_; }

 private:
  std::optional<T> value_;
  E error_{};
};

template <typename T>
using StatusOr = Expected<T, Status>;

}  // namespace phtree

#endif  // PHTREE_COMMON_STATUS_H_
