#include "store/snapshot_v2.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "detect/hbos.h"
#include "embed/bisage.h"
#include "fault/failpoint.h"
#include "graph/bipartite_graph.h"
#include "math/rng.h"
#include "store/format.h"
#include "store/mmap_file.h"
#include "store/wire.h"

namespace gem::store {
namespace {

// --- Wire-encoded state: RNG streams, config, graph -----------------
// The small, structure-heavy sections go through WireWriter/WireReader
// element by element; only the bulk tensors below get aligned blocks.

void PutRngState(WireWriter& w, const math::Rng::State& state) {
  for (const uint64_t word : state.words) w.PutU64(word);
  w.PutF64(state.cached_normal);
  w.PutU8(state.has_cached_normal ? 1 : 0);
}

Status GetRngState(WireReader& r, math::Rng::State* out) {
  for (uint64_t& word : out->words) {
    Status status = r.GetU64(&word);
    if (!status.ok()) return status;
  }
  Status status = r.GetF64(&out->cached_normal);
  if (!status.ok()) return status;
  uint8_t flag;
  status = r.GetU8(&flag);
  if (!status.ok()) return status;
  out->has_cached_normal = flag != 0;
  return Status::Ok();
}

void PutIntVec(WireWriter& w, const std::vector<int>& v) {
  w.PutU64(v.size());
  for (const int x : v) w.PutI32(x);
}

Status GetIntVec(WireReader& r, std::vector<int>* out) {
  uint64_t n;
  Status status = r.GetU64(&n);
  if (!status.ok()) return status;
  if (n > r.remaining() / 4) {
    return Status::DataLoss("int vector length exceeds payload");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int32_t x;
    status = r.GetI32(&x);
    if (!status.ok()) return status;
    out->push_back(x);
  }
  return Status::Ok();
}

// --- Config section -------------------------------------------------

std::string EncodeConfig(const core::GemConfig& config) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(config.edge_weight.kind));
  w.PutF64(config.edge_weight.offset_c);
  w.PutF64(config.edge_weight.exp_scale);

  const embed::BiSageConfig& b = config.bisage;
  w.PutI32(b.dimension);
  w.PutI32(b.num_layers);
  PutIntVec(w, b.fanouts);
  w.PutI32(b.walks_per_node);
  w.PutI32(b.walk_length);
  w.PutI32(b.epochs);
  w.PutI32(b.num_negatives);
  w.PutF64(b.learning_rate);
  w.PutI32(b.batch_pairs);
  PutIntVec(w, b.inference_fanouts);
  w.PutU8(b.use_edge_weights ? 1 : 0);
  w.PutI32(b.min_mac_degree);
  w.PutU64(b.seed);

  const detect::EnhancedHbosOptions& d = config.detector;
  w.PutI32(d.bins);
  w.PutF64(d.temperature);
  w.PutF64(d.tau_upper);
  w.PutF64(d.tau_lower);
  w.PutU8(d.auto_calibrate ? 1 : 0);
  w.PutI32(d.calibration_folds);
  w.PutF64(d.calibration_upper_percentile);
  w.PutF64(d.calibration_spread_factor);
  w.PutF64(d.calibration_lower_percentile);
  w.PutI64(d.max_retained_samples);

  w.PutU8(config.online_update ? 1 : 0);
  return w.TakeBytes();
}

Status DecodeConfig(std::string_view payload, core::GemConfig* out) {
  WireReader r(payload);
  uint32_t kind;
  uint8_t flag;
  Status status = r.GetU32(&kind);
  if (!status.ok()) return status;
  if (kind > static_cast<uint32_t>(graph::WeightKind::kSquaredOffset)) {
    return Status::InvalidArgument("config: unknown edge-weight kind");
  }
  out->edge_weight.kind = static_cast<graph::WeightKind>(kind);
  if (!(status = r.GetF64(&out->edge_weight.offset_c)).ok()) return status;
  if (!(status = r.GetF64(&out->edge_weight.exp_scale)).ok()) return status;

  embed::BiSageConfig& b = out->bisage;
  if (!(status = r.GetI32(&b.dimension)).ok()) return status;
  if (!(status = r.GetI32(&b.num_layers)).ok()) return status;
  if (!(status = GetIntVec(r, &b.fanouts)).ok()) return status;
  if (!(status = r.GetI32(&b.walks_per_node)).ok()) return status;
  if (!(status = r.GetI32(&b.walk_length)).ok()) return status;
  if (!(status = r.GetI32(&b.epochs)).ok()) return status;
  if (!(status = r.GetI32(&b.num_negatives)).ok()) return status;
  if (!(status = r.GetF64(&b.learning_rate)).ok()) return status;
  if (!(status = r.GetI32(&b.batch_pairs)).ok()) return status;
  if (!(status = GetIntVec(r, &b.inference_fanouts)).ok()) return status;
  if (!(status = r.GetU8(&flag)).ok()) return status;
  b.use_edge_weights = flag != 0;
  if (!(status = r.GetI32(&b.min_mac_degree)).ok()) return status;
  if (!(status = r.GetU64(&b.seed)).ok()) return status;
  // Basic plausibility bounds on persisted bytes; full semantic
  // validation (BiSageConfig::Validate) runs in Gem::FromParts.
  if (b.dimension < 1 || b.dimension > 65536) {
    return Status::InvalidArgument("config: implausible embedding dimension");
  }
  if (b.num_layers < 1 || b.num_layers > 64 ||
      static_cast<int>(b.fanouts.size()) != b.num_layers ||
      (!b.inference_fanouts.empty() &&
       static_cast<int>(b.inference_fanouts.size()) != b.num_layers)) {
    return Status::InvalidArgument("config: inconsistent layer layout");
  }

  detect::EnhancedHbosOptions& d = out->detector;
  if (!(status = r.GetI32(&d.bins)).ok()) return status;
  if (!(status = r.GetF64(&d.temperature)).ok()) return status;
  if (!(status = r.GetF64(&d.tau_upper)).ok()) return status;
  if (!(status = r.GetF64(&d.tau_lower)).ok()) return status;
  if (!(status = r.GetU8(&flag)).ok()) return status;
  d.auto_calibrate = flag != 0;
  if (!(status = r.GetI32(&d.calibration_folds)).ok()) return status;
  if (!(status = r.GetF64(&d.calibration_upper_percentile)).ok()) {
    return status;
  }
  if (!(status = r.GetF64(&d.calibration_spread_factor)).ok()) return status;
  if (!(status = r.GetF64(&d.calibration_lower_percentile)).ok()) {
    return status;
  }
  int64_t max_retained;
  if (!(status = r.GetI64(&max_retained)).ok()) return status;
  d.max_retained_samples = static_cast<long>(max_retained);

  if (!(status = r.GetU8(&flag)).ok()) return status;
  out->online_update = flag != 0;
  return Status::Ok();
}

// --- Graph section --------------------------------------------------

std::string EncodeGraph(const graph::BipartiteGraph& g) {
  WireWriter w;
  const int n = g.num_nodes();
  w.PutU32(static_cast<uint32_t>(n));
  for (graph::NodeId id = 0; id < n; ++id) {
    w.PutU8(g.type(id) == graph::NodeType::kMac ? 1 : 0);
  }
  for (graph::NodeId id = 0; id < n; ++id) {
    const auto& neighbors = g.neighbors(id);
    w.PutU64(neighbors.size());
    for (const graph::Neighbor& nb : neighbors) {
      w.PutU32(static_cast<uint32_t>(nb.node));
      w.PutF64(nb.weight);
    }
  }
  // Canonical order (by node id) so identical models always encode to
  // identical bytes — unordered_map iteration order is not stable
  // across rebuilds of the index.
  std::vector<std::pair<graph::NodeId, std::string>> macs;
  macs.reserve(g.mac_index().size());
  for (const auto& [mac, id] : g.mac_index()) macs.emplace_back(id, mac);
  std::sort(macs.begin(), macs.end());
  w.PutU64(macs.size());
  for (const auto& [id, mac] : macs) {
    w.PutString(mac);
    w.PutU32(static_cast<uint32_t>(id));
  }
  return w.TakeBytes();
}

Status DecodeGraph(std::string_view payload,
                   const graph::EdgeWeightConfig& weight_config,
                   Result<graph::BipartiteGraph>* out) {
  WireReader r(payload);
  uint32_t n;
  Status status = r.GetU32(&n);
  if (!status.ok()) return status;
  if (n > r.remaining()) {
    return Status::DataLoss("graph: node count exceeds payload");
  }
  std::vector<graph::NodeType> types;
  types.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t t;
    if (!(status = r.GetU8(&t)).ok()) return status;
    if (t > 1) return Status::InvalidArgument("graph: unknown node type");
    types.push_back(t == 1 ? graph::NodeType::kMac
                           : graph::NodeType::kRecord);
  }
  std::vector<std::vector<graph::Neighbor>> adjacency(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t degree;
    if (!(status = r.GetU64(&degree)).ok()) return status;
    if (degree > r.remaining() / 12) {
      return Status::DataLoss("graph: degree exceeds payload");
    }
    adjacency[i].reserve(degree);
    for (uint64_t e = 0; e < degree; ++e) {
      uint32_t node;
      double weight;
      if (!(status = r.GetU32(&node)).ok()) return status;
      if (!(status = r.GetF64(&weight)).ok()) return status;
      adjacency[i].push_back(
          graph::Neighbor{static_cast<graph::NodeId>(node), weight});
    }
  }
  uint64_t num_macs;
  if (!(status = r.GetU64(&num_macs)).ok()) return status;
  if (num_macs > r.remaining() / 12) {
    return Status::DataLoss("graph: mac count exceeds payload");
  }
  std::vector<std::pair<std::string, graph::NodeId>> macs;
  macs.reserve(num_macs);
  for (uint64_t i = 0; i < num_macs; ++i) {
    std::string mac;
    uint32_t id;
    if (!(status = r.GetString(&mac)).ok()) return status;
    if (!(status = r.GetU32(&id)).ok()) return status;
    macs.emplace_back(std::move(mac), static_cast<graph::NodeId>(id));
  }
  *out = graph::BipartiteGraph::FromParts(weight_config, std::move(types),
                                          std::move(adjacency),
                                          std::move(macs));
  return Status::Ok();
}

// --- Aligned f64 data sections --------------------------------------

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kLittleEndian = true;
#else
constexpr bool kLittleEndian = false;
#endif

/// A (offset, count) descriptor into a data section: `count` doubles
/// starting `offset` bytes into the section. Offsets are 64-byte
/// aligned relative to the section start; sections themselves start at
/// 64-byte-aligned file offsets, so alignment holds file-absolute.
struct BlockRef {
  uint64_t offset = 0;
  uint64_t count = 0;
};

/// Accumulates the raw f64 payload of a data section: each tensor is
/// appended as one aligned block and addressed by the returned
/// BlockRef (recorded in the paired meta section).
class DataSectionBuilder {
 public:
  BlockRef Append(const double* values, uint64_t count) {
    const uint64_t at = AlignUp(bytes_.size());
    bytes_.resize(at + count * sizeof(double), '\0');
    if (count > 0) {
      if constexpr (kLittleEndian) {
        std::memcpy(bytes_.data() + at, values, count * sizeof(double));
      } else {
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t bits;
          std::memcpy(&bits, &values[i], sizeof(bits));
          for (int b = 0; b < 8; ++b) {
            bytes_[at + i * 8 + b] =
                static_cast<char>((bits >> (8 * b)) & 0xFF);
          }
        }
      }
    }
    return BlockRef{at, count};
  }

  std::string TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

void PutBlock(WireWriter& w, const BlockRef& ref) {
  w.PutU64(ref.offset);
  w.PutU64(ref.count);
}

/// Reads a BlockRef and bounds-checks it against the data section:
/// aligned offset, extent inside the section, count == expected.
Status GetBlock(WireReader& r, std::string_view data, uint64_t expected,
                const char* what, BlockRef* out) {
  Status status = r.GetU64(&out->offset);
  if (!status.ok()) return status;
  if (!(status = r.GetU64(&out->count)).ok()) return status;
  if (out->count != expected) {
    return Status::DataLoss(std::string(what) +
                            ": block count does not match declared shape");
  }
  if (out->offset % kSectionAlignment != 0) {
    return Status::DataLoss(std::string(what) + ": misaligned block offset");
  }
  if (out->offset > data.size() ||
      out->count > (data.size() - out->offset) / sizeof(double)) {
    return Status::DataLoss(std::string(what) +
                            ": block extent exceeds data section");
  }
  return Status::Ok();
}

/// One aligned bulk copy out of the mapped data section (the v2 load
/// fast path — never a per-element wire parse).
void CopyBlock(std::string_view data, const BlockRef& ref, double* dst) {
  if (ref.count == 0) return;
  if constexpr (kLittleEndian) {
    std::memcpy(dst, data.data() + ref.offset, ref.count * sizeof(double));
  } else {
    for (uint64_t i = 0; i < ref.count; ++i) {
      uint64_t bits = 0;
      for (int b = 7; b >= 0; --b) {
        bits = (bits << 8) |
               static_cast<uint8_t>(data[ref.offset + i * 8 + b]);
      }
      std::memcpy(&dst[i], &bits, sizeof(bits));
    }
  }
}

void PutMatrixBlock(WireWriter& meta, DataSectionBuilder& data,
                    const math::Matrix& m) {
  meta.PutU32(static_cast<uint32_t>(m.rows()));
  meta.PutU32(static_cast<uint32_t>(m.cols()));
  // ptr() rather than data(): a matrix borrowed from a mapped base
  // round-trips through save without materializing.
  PutBlock(meta, data.Append(m.ptr(),
                             static_cast<uint64_t>(m.rows()) * m.cols()));
}

/// Builds a Matrix over `ref`'s extent of the data section: a borrowed
/// view (zero-copy; the mapping must outlive the matrix) when `borrow`
/// is set and the platform allows it, else one aligned bulk copy.
Status MatrixFromBlock(std::string_view data, const BlockRef& ref, int rows,
                       int cols, bool borrow, const char* what,
                       math::Matrix* out) {
  if (borrow && kLittleEndian) {
    // Block offsets are 64-byte aligned relative to a 64-byte-aligned
    // section of a page-aligned mapping, so the pointer satisfies the
    // view alignment contract; View() still checks.
    StatusOr<math::Matrix> view = math::Matrix::View(
        reinterpret_cast<const double*>(data.data() + ref.offset), rows,
        cols);
    if (!view.ok()) {
      return Status::DataLoss(std::string(what) + ": " +
                              view.status().message());
    }
    *out = std::move(view).value();
    return Status::Ok();
  }
  *out = math::Matrix(rows, cols);
  if (ref.count > 0) CopyBlock(data, ref, out->data().data());
  return Status::Ok();
}

Status GetMatrixBlock(WireReader& r, std::string_view data, const char* what,
                      math::Matrix* out, bool borrow = false) {
  uint32_t rows;
  uint32_t cols;
  Status status = r.GetU32(&rows);
  if (!status.ok()) return status;
  if (!(status = r.GetU32(&cols)).ok()) return status;
  if (rows > (1u << 30) || cols > (1u << 30)) {
    return Status::DataLoss(std::string(what) + ": implausible matrix shape");
  }
  BlockRef ref;
  status = GetBlock(r, data, static_cast<uint64_t>(rows) * cols, what, &ref);
  if (!status.ok()) return status;
  return MatrixFromBlock(data, ref, static_cast<int>(rows),
                         static_cast<int>(cols), borrow, what, out);
}

void PutVecBlock(WireWriter& meta, DataSectionBuilder& data,
                 const math::Vec& v) {
  meta.PutU64(v.size());
  PutBlock(meta, data.Append(v.data(), v.size()));
}

Status GetVecBlock(WireReader& r, std::string_view data, const char* what,
                   math::Vec* out) {
  uint64_t n;
  Status status = r.GetU64(&n);
  if (!status.ok()) return status;
  BlockRef ref;
  if (!(status = GetBlock(r, data, n, what, &ref)).ok()) return status;
  out->assign(n, 0.0);
  if (n > 0) CopyBlock(data, ref, out->data());
  return Status::Ok();
}

// --- Embedder meta/data sections ------------------------------------

void EncodeEmbedderV2(const embed::BiSageEmbedder& embedder,
                      std::string* meta_out, std::string* data_out) {
  WireWriter meta;
  DataSectionBuilder data;
  PutIntVec(meta, embedder.train_nodes());
  const embed::BiSage::TrainedState state = embedder.model().ExportTrained();
  PutMatrixBlock(meta, data, state.h_table);
  PutMatrixBlock(meta, data, state.l_table);
  meta.PutU32(static_cast<uint32_t>(state.w_h.size()));
  for (const math::Matrix& m : state.w_h) PutMatrixBlock(meta, data, m);
  for (const math::Matrix& m : state.w_l) PutMatrixBlock(meta, data, m);
  PutRngState(meta, state.init_rng);
  meta.PutI32(state.trained_nodes);
  meta.PutF64(state.last_epoch_loss);
  *meta_out = meta.TakeBytes();
  *data_out = data.TakeBytes();
}

Status DecodeEmbedderV2(std::string_view meta, std::string_view data,
                        std::vector<graph::NodeId>* train_nodes,
                        embed::BiSage::TrainedState* state,
                        bool borrow = false) {
  WireReader r(meta);
  Status status = GetIntVec(r, train_nodes);
  if (!status.ok()) return status;
  if (!(status = GetMatrixBlock(r, data, "embedder h_table",
                                &state->h_table, borrow))
           .ok()) {
    return status;
  }
  if (!(status = GetMatrixBlock(r, data, "embedder l_table",
                                &state->l_table, borrow))
           .ok()) {
    return status;
  }
  uint32_t layers;
  if (!(status = r.GetU32(&layers)).ok()) return status;
  if (layers > 64) {
    return Status::DataLoss("embedder: implausible layer count");
  }
  state->w_h.resize(layers);
  state->w_l.resize(layers);
  for (math::Matrix& m : state->w_h) {
    if (!(status = GetMatrixBlock(r, data, "embedder w_h", &m, borrow))
             .ok()) {
      return status;
    }
  }
  for (math::Matrix& m : state->w_l) {
    if (!(status = GetMatrixBlock(r, data, "embedder w_l", &m, borrow))
             .ok()) {
      return status;
    }
  }
  if (!(status = GetRngState(r, &state->init_rng)).ok()) {
    return status;
  }
  if (!(status = r.GetI32(&state->trained_nodes)).ok()) return status;
  if (!(status = r.GetF64(&state->last_epoch_loss)).ok()) return status;
  return Status::Ok();
}

// --- Detector meta/data sections ------------------------------------

Status EncodeDetectorV2(const detect::EnhancedHbosDetector& detector,
                        std::string* meta_out, std::string* data_out) {
  WireWriter meta;
  DataSectionBuilder data;
  const detect::EnhancedHbosDetector::PersistedState state =
      detector.ExportState();
  meta.PutI32(state.model.bins);
  meta.PutI64(state.model.samples);
  meta.PutI64(state.model.max_retained);
  PutVecBlock(meta, data, state.model.lo);
  PutVecBlock(meta, data, state.model.hi);
  PutMatrixBlock(meta, data, state.model.counts);
  // Retained samples are one contiguous rows x dimension block (the
  // HistogramModel stores them that way), so the section is a single
  // aligned append — and a single borrowed view on the load side.
  const math::Matrix& samples = state.model.data;
  meta.PutU64(static_cast<uint64_t>(samples.rows()));
  meta.PutU64(static_cast<uint64_t>(samples.cols()));
  PutBlock(meta, data.Append(samples.ptr(), samples.size()));
  PutRngState(meta, state.model.reservoir_rng);
  meta.PutF64(state.score_lo);
  meta.PutF64(state.score_hi);
  meta.PutF64(state.threshold);
  meta.PutF64(state.hbar_tau_upper);
  meta.PutF64(state.hbar_tau_lower);
  *meta_out = meta.TakeBytes();
  *data_out = data.TakeBytes();
  return Status::Ok();
}

Status DecodeDetectorV2(std::string_view meta, std::string_view data,
                        detect::EnhancedHbosDetector::PersistedState* state,
                        bool borrow = false) {
  WireReader r(meta);
  int32_t bins;
  int64_t samples;
  int64_t max_retained;
  Status status = r.GetI32(&bins);
  if (!status.ok()) return status;
  if (!(status = r.GetI64(&samples)).ok()) return status;
  if (!(status = r.GetI64(&max_retained)).ok()) return status;
  state->model.bins = bins;
  state->model.samples = static_cast<long>(samples);
  state->model.max_retained = static_cast<long>(max_retained);
  if (!(status = GetVecBlock(r, data, "detector lo", &state->model.lo))
           .ok()) {
    return status;
  }
  if (!(status = GetVecBlock(r, data, "detector hi", &state->model.hi))
           .ok()) {
    return status;
  }
  if (!(status = GetMatrixBlock(r, data, "detector counts",
                                &state->model.counts, borrow))
           .ok()) {
    return status;
  }
  uint64_t row_count;
  uint64_t row_size;
  if (!(status = r.GetU64(&row_count)).ok()) return status;
  if (!(status = r.GetU64(&row_size)).ok()) return status;
  if (row_count > 0 && row_size == 0) {
    return Status::DataLoss("detector: zero-width retained samples");
  }
  if (row_count > (1u << 30) || row_size > (1u << 30)) {
    return Status::DataLoss("detector: implausible retained-sample shape");
  }
  // Overflow-safe: bound row_size first so row_count * row_size below
  // cannot wrap before GetBlock's extent check sees it.
  if (row_count > 0 &&
      (row_size > data.size() / sizeof(double) ||
       row_count > data.size() / (row_size * sizeof(double)))) {
    return Status::DataLoss("detector: retained samples exceed data section");
  }
  BlockRef ref;
  if (!(status = GetBlock(r, data, row_count * row_size, "detector samples",
                          &ref))
           .ok()) {
    return status;
  }
  if (!(status = MatrixFromBlock(data, ref, static_cast<int>(row_count),
                                 static_cast<int>(row_size), borrow,
                                 "detector samples", &state->model.data))
           .ok()) {
    return status;
  }
  if (!(status = GetRngState(r, &state->model.reservoir_rng))
           .ok()) {
    return status;
  }
  if (!(status = r.GetF64(&state->score_lo)).ok()) return status;
  if (!(status = r.GetF64(&state->score_hi)).ok()) return status;
  if (!(status = r.GetF64(&state->threshold)).ok()) return status;
  if (!(status = r.GetF64(&state->hbar_tau_upper)).ok()) return status;
  if (!(status = r.GetF64(&state->hbar_tau_lower)).ok()) return status;
  return Status::Ok();
}

}  // namespace

Status SaveSnapshotV2(const std::string& path, const core::Gem& gem) {
  if (!gem.trained()) {
    return Status::FailedPrecondition("cannot snapshot an untrained model");
  }
  GEM_FAILPOINT("store.snapshot.write");

  std::string embed_meta;
  std::string embed_data;
  EncodeEmbedderV2(gem.embedder(), &embed_meta, &embed_data);
  std::string detect_meta;
  std::string detect_data;
  Status status =
      EncodeDetectorV2(gem.detector(), &detect_meta, &detect_data);
  if (!status.ok()) return status;

  const std::string bytes = SerializeV2({
      {kConfigTag, EncodeConfig(gem.config())},
      {kGraphTag, EncodeGraph(gem.embedder().graph())},
      {kEmbedderMetaTag, std::move(embed_meta)},
      {kEmbedderDataTag, std::move(embed_data)},
      {kDetectorMetaTag, std::move(detect_meta)},
      {kDetectorDataTag, std::move(detect_data)},
  });

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      return Status::InvalidArgument("cannot open " + tmp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      return Status::Internal("write to " + tmp + " failed");
    }
  }
  GEM_FAILPOINT_ON("store.snapshot.rename", {
    std::remove(tmp.c_str());
    return failpoint_status;
  });
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::Ok();
}

namespace internal {

StatusOr<core::Gem> GemFromImage(std::string_view bytes,
                                 const std::string& path, bool borrow) {
  StatusOr<std::vector<SectionEntry>> entries = ParseV2(bytes);
  if (!entries.ok()) {
    return Status(entries.code(), path + ": " + entries.status().message());
  }

  std::map<uint32_t, std::string_view> payloads;
  for (const SectionEntry& entry : *entries) {
    // First occurrence wins; unknown tags are skipped for forward
    // compatibility within the version.
    payloads.emplace(entry.tag,
                     bytes.substr(entry.offset, entry.length));
  }
  for (const uint32_t required :
       {kConfigTag, kGraphTag, kEmbedderMetaTag, kEmbedderDataTag,
        kDetectorMetaTag, kDetectorDataTag}) {
    if (payloads.find(required) == payloads.end()) {
      return Status::DataLoss(path + ": missing section " +
                              SectionTagName(required));
    }
  }

  core::GemConfig config;
  Status status =
      DecodeConfig(payloads[kConfigTag], &config);
  if (!status.ok()) return status;

  Result<graph::BipartiteGraph> graph = Status::Internal("unset");
  if (!(status = DecodeGraph(
            payloads[kGraphTag], config.edge_weight, &graph))
           .ok()) {
    return status;
  }
  if (!graph.ok()) return graph.status();

  std::vector<graph::NodeId> train_nodes;
  embed::BiSage::TrainedState embed_state;
  if (!(status = DecodeEmbedderV2(payloads[kEmbedderMetaTag],
                                  payloads[kEmbedderDataTag], &train_nodes,
                                  &embed_state, borrow))
           .ok()) {
    return status;
  }

  detect::EnhancedHbosDetector::PersistedState detect_state;
  if (!(status = DecodeDetectorV2(payloads[kDetectorMetaTag],
                                  payloads[kDetectorDataTag], &detect_state,
                                  borrow))
           .ok()) {
    return status;
  }

  embed::BiSageEmbedder embedder(config.bisage, config.edge_weight);
  status = embedder.RestoreFitted(std::move(graph).value(),
                                  std::move(train_nodes),
                                  std::move(embed_state));
  if (!status.ok()) return status;

  Result<detect::EnhancedHbosDetector> detector =
      detect::EnhancedHbosDetector::FromState(config.detector,
                                              std::move(detect_state));
  if (!detector.ok()) return detector.status();

  return core::Gem::FromParts(std::move(config), std::move(embedder),
                              std::move(detector).value());
}

}  // namespace internal

StatusOr<core::Gem> LoadSnapshotV2(const std::string& path) {
  StatusOr<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  // Fires as if in-place validation of the mapping failed (a corrupt
  // page the sweeps cannot place deterministically).
  GEM_FAILPOINT("store.snapshot.validate");
  // borrow=false: the mapping dies with this scope, so every tensor is
  // copied out (the historical "copy load").
  return internal::GemFromImage(map->bytes(), path, /*borrow=*/false);
}

}  // namespace gem::store
