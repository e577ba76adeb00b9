#ifndef GEM_STORE_MAPPED_MODEL_H_
#define GEM_STORE_MAPPED_MODEL_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "base/status.h"
#include "base/statusor.h"
#include "core/gem.h"
#include "store/mmap_file.h"

namespace gem::store {

/// Options for MappedModel::Open. Zero-initialized defaults are the
/// production configuration; Validate() is called by Open.
struct MappedModelOptions {
  /// Hard cap on the snapshot file size in bytes; 0 = unlimited. A
  /// fleet-wide guard against mapping a runaway (or hostile) file.
  long max_file_bytes = 0;

  Status Validate() const;
};

/// A trained core::Gem whose bulk tensors (embedder tables and layer
/// weights, detector histograms and retained samples) are borrowed
/// math::Matrix views straight over a read-only mmap of a v2 snapshot
/// — the zero-copy cold-load path.
///
/// Lifetime: the Gem's views point into the mapping, so the MmapFile
/// must outlive the Gem. The backing is held as a shared_ptr so a
/// caller that moves the Gem elsewhere (serve::Fence) can carry the
/// mapping along; eviction then becomes "drop the last shared_ptr" ==
/// munmap, and every generation mapping the same inode shares its
/// clean pages.
///
/// Mutation safety: gem() is const, and every const Gem method writes
/// only the caller's GemOverlay, never the base. Only Train() — a
/// wholesale refit, reachable once TakeGem() hands the Gem out —
/// replaces the borrowed state with owned storage.
///
/// This is the only way a served model is loaded: FenceCache's cold
/// loads and its Install both go through OpenWithRetry below.
class MappedModel {
 public:
  /// Maps `path` (which must be a v2 snapshot), validates it in place,
  /// advises the kernel the mapping is read randomly (inference
  /// touches scattered table rows), and builds the view-backed Gem.
  /// kNotFound for a missing file, kDataLoss on corruption (bad magic
  /// included), kInvalidArgument for any version but 2 or an
  /// over-budget file. Failpoints: `store.mmap.open`,
  /// `store.mmap.map`, `store.snapshot.validate`.
  static StatusOr<MappedModel> Open(const std::string& path,
                                    const MappedModelOptions& options = {});

  MappedModel(MappedModel&&) noexcept = default;
  MappedModel& operator=(MappedModel&&) noexcept = default;
  MappedModel(const MappedModel&) = delete;
  MappedModel& operator=(const MappedModel&) = delete;

  const core::Gem& gem() const { return *gem_; }

  /// The mapping keeping the Gem's borrowed views alive. Hold a copy
  /// for as long as any Gem moved out of this object is in use.
  const std::shared_ptr<MmapFile>& backing() const { return backing_; }

  /// Snapshot file size — the full extent of the mapping. This is
  /// VIRTUAL footprint; the private-dirty cost of a mapped model is
  /// near zero until overlay mutation privatizes pages.
  uint64_t file_bytes() const { return backing_->size(); }

  /// Moves the Gem out (for transfer into a serve::Fence). The caller
  /// must also take a copy of backing() and keep it alive for the
  /// Gem's lifetime.
  core::Gem TakeGem() && { return std::move(*gem_); }

 private:
  MappedModel(std::shared_ptr<MmapFile> backing, core::Gem gem)
      : backing_(std::move(backing)), gem_(std::move(gem)) {}

  // Declaration order is the destruction contract: gem_ (views) is
  // destroyed before backing_ (mapping).
  std::shared_ptr<MmapFile> backing_;
  std::optional<core::Gem> gem_;
};

/// Bounded exponential-backoff retry for model loads (live reloads and
/// cold loads in a long-running server hit transient I/O failures; a
/// load that gives up must not take the previous generation down with
/// it).
struct RetryOptions {
  /// Total attempts, including the first (1 = no retry).
  int max_attempts = 3;
  /// Sleep before attempt 2; doubles per attempt.
  std::chrono::milliseconds initial_backoff{5};

  /// kInvalidArgument unless max_attempts >= 1 and initial_backoff >= 0.
  Status Validate() const;
};

/// MappedModel::Open under `retry`. Only transient codes (kUnavailable,
/// kInternal) are retried — kNotFound, kDataLoss and kInvalidArgument
/// are terminal and return immediately. Each retry increments
/// gem_store_load_retries_total.
StatusOr<MappedModel> OpenWithRetry(const std::string& path,
                                    const RetryOptions& retry,
                                    const MappedModelOptions& options = {});

}  // namespace gem::store

#endif  // GEM_STORE_MAPPED_MODEL_H_
