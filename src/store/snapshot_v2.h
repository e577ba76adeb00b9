#ifndef GEM_STORE_SNAPSHOT_V2_H_
#define GEM_STORE_SNAPSHOT_V2_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "base/statusor.h"
#include "core/gem.h"

namespace gem::store {

/// v2 snapshot I/O (format.h documents the byte layout): a versioned,
/// self-describing binary image of a trained core::Gem — the full
/// GemConfig, the bipartite graph, the BiSAGE node tables and layer
/// weights (plus the init-RNG stream), and the enhanced HBOS
/// detector's histograms / retained samples / normalization anchors /
/// thresholds. A loaded snapshot produces bit-identical Infer() scores
/// to the process that saved it. The file is mmap'd read-only and
/// validated in place (header/table/section CRCs over the mapping, no
/// intermediate buffer); MappedModel::Open is the serving load.

/// Atomically writes `gem` (which must be trained) to `path` in v2
/// layout via a temp file + rename, so a crash mid-write never leaves
/// a torn snapshot under the final name, and a replaced file's old
/// inode stays valid for whoever still maps it. Failpoints:
/// `store.snapshot.write`, `store.snapshot.rename`.
Status SaveSnapshotV2(const std::string& path, const core::Gem& gem);

/// The copy load: maps `path`, validates it, and copies every tensor
/// out of the mapping, so the result owns its storage. The reference
/// the mapped load is tested against. kNotFound when missing,
/// kDataLoss on any corruption (truncation, bit flips, misaligned or
/// out-of-bounds sections), kInvalidArgument for any version but 2.
/// Failpoints: `store.mmap.open`, `store.mmap.map`,
/// `store.snapshot.validate`.
StatusOr<core::Gem> LoadSnapshotV2(const std::string& path);

namespace internal {

/// Decodes a complete v2 image (`bytes` = the whole file) into a Gem.
/// With borrow=false every tensor is copied out of the image. With
/// borrow=true the bulk tensors (embedder tables/weights, detector
/// counts and retained samples) are constructed as borrowed
/// math::Matrix views straight over the image — zero-copy, so `bytes`
/// MUST outlive the returned Gem; store::MappedModel is the public
/// wrapper that ties the two lifetimes together. On a big-endian host
/// borrow requests silently fall back to copies (the wire format is
/// little-endian). `path` is used only to prefix error messages.
StatusOr<core::Gem> GemFromImage(std::string_view bytes,
                                 const std::string& path, bool borrow);

}  // namespace internal

}  // namespace gem::store

#endif  // GEM_STORE_SNAPSHOT_V2_H_
