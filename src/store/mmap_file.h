#ifndef GEM_STORE_MMAP_FILE_H_
#define GEM_STORE_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "base/status.h"
#include "base/statusor.h"

namespace gem::store {

/// Read-only memory-mapped file. The mapping is private and read-only:
/// the kernel pages snapshot bytes in on demand and may share the
/// clean pages across every process (and every generation) mapping the
/// same file — the property that turns fence density into a paging
/// problem instead of a heap problem.
///
/// Move-only RAII: the mapping lives until the object is destroyed.
/// Failure surfaces as Status (kNotFound for a missing file,
/// kUnavailable for map/open failures worth retrying, kDataLoss for an
/// empty file — a snapshot truncated to zero bytes), never as a crash;
/// the `store.mmap.open` / `store.mmap.map` failpoints inject those
/// same outcomes for chaos tests.
class MmapFile {
 public:
  /// Maps `path` read-only in full.
  static StatusOr<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// The mapped bytes; empty when default-constructed.
  std::string_view bytes() const {
    return std::string_view(static_cast<const char*>(data_), size_);
  }
  const void* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  MmapFile(void* data, size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace gem::store

#endif  // GEM_STORE_MMAP_FILE_H_
