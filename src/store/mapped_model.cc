#include "store/mapped_model.h"

#include <sys/mman.h>

#include <thread>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "store/snapshot_v2.h"

namespace gem::store {

Status MappedModelOptions::Validate() const {
  if (max_file_bytes < 0) {
    return Status::InvalidArgument(
        "MappedModelOptions.max_file_bytes must be >= 0 (0 = unlimited)");
  }
  return Status::Ok();
}

StatusOr<MappedModel> MappedModel::Open(const std::string& path,
                                        const MappedModelOptions& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;

  StatusOr<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  if (options.max_file_bytes > 0 &&
      map->size() > static_cast<size_t>(options.max_file_bytes)) {
    return Status::InvalidArgument(
        path + ": " + std::to_string(map->size()) +
        " bytes exceeds MappedModelOptions.max_file_bytes (" +
        std::to_string(options.max_file_bytes) + ")");
  }
  // Same injection point as the copy load, so the chaos sweeps cover
  // both with one failpoint name.
  GEM_FAILPOINT("store.snapshot.validate");

  // Advisory only: a failure (e.g. on an exotic filesystem) costs
  // readahead efficiency, not correctness. MmapFile never maps an
  // empty file.
  (void)posix_madvise(const_cast<void*>(map->data()), map->size(),
                      POSIX_MADV_RANDOM);

  auto backing = std::make_shared<MmapFile>(std::move(map).value());
  StatusOr<core::Gem> gem =
      internal::GemFromImage(backing->bytes(), path, /*borrow=*/true);
  if (!gem.ok()) return gem.status();

  static obs::Counter& opens = obs::MetricsRegistry::Get().GetCounter(
      "gem_store_mapped_opens_total");
  opens.Increment();
  return MappedModel(std::move(backing), std::move(gem).value());
}

Status RetryOptions::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("retry max_attempts must be >= 1, got " +
                                   std::to_string(max_attempts));
  }
  if (initial_backoff.count() < 0) {
    return Status::InvalidArgument("retry initial_backoff must be >= 0");
  }
  return Status::Ok();
}

StatusOr<MappedModel> OpenWithRetry(const std::string& path,
                                    const RetryOptions& retry,
                                    const MappedModelOptions& options) {
  const Status valid = retry.Validate();
  if (!valid.ok()) return valid;
  static obs::Counter& retries =
      obs::MetricsRegistry::Get().GetCounter("gem_store_load_retries_total");
  std::chrono::duration<double, std::milli> backoff = retry.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    StatusOr<MappedModel> model = MappedModel::Open(path, options);
    const bool transient = model.code() == StatusCode::kUnavailable ||
                           model.code() == StatusCode::kInternal;
    if (!transient || attempt >= retry.max_attempts) return model;
    retries.Increment();
    if (backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
    }
    backoff *= 2.0;
  }
}

}  // namespace gem::store
