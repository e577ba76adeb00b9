#ifndef GEM_BASE_STATUSOR_H_
#define GEM_BASE_STATUSOR_H_

#include <utility>
#include <variant>

#include "base/check.h"
#include "base/status.h"

namespace gem {

/// A value-or-error wrapper: every fallible value-producing API in GEM
/// returns `StatusOr<T>` instead of `std::optional` (which erases the
/// failure reason) or a Status + out-parameter pair.
///
/// Accessors that assume success (`value()`, `operator*`, `operator->`)
/// GEM_CHECK on misuse; test `ok()` (or branch on `status().code()`)
/// first. The error-side Status is never OK — constructing a StatusOr
/// from an OK Status is a programmer error and aborts.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value and from Status so call sites can
  /// `return value;` or `return Status::InvalidArgument(...)`.
  StatusOr(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : data_(std::move(status)) {  // NOLINT
    GEM_CHECK(!std::get<Status>(data_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// OK on the success path, the stored error otherwise.
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(data_);
  }

  /// StatusCode::kOk on the success path (shorthand for status().code()).
  StatusCode code() const {
    return ok() ? StatusCode::kOk : std::get<Status>(data_).code();
  }

  const T& value() const& {
    GEM_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                  std::get<Status>(data_).ToString().c_str());
    return std::get<T>(data_);
  }
  T& value() & {
    GEM_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                  std::get<Status>(data_).ToString().c_str());
    return std::get<T>(data_);
  }
  T&& value() && {
    GEM_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                  std::get<Status>(data_).ToString().c_str());
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }

  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace gem

#endif  // GEM_BASE_STATUSOR_H_
