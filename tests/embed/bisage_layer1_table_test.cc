// Differential property test of BiSAGE's layer-1 MAC table. A MAC's
// layer-1 aggregate over its record neighbors is exactly +0.0 (record
// rows are zero), so EmbedForward reads a MAC's (h^1, l^1) from a
// per-model table instead of visiting its records. This suite holds
// that shortcut to the full recursion it replaces: a test-local copy of
// the pre-table forward pass, which visits every record child, must
// produce the same bits (memcmp) for every node of random bipartite
// graphs — at K = 1, 2, 3, with and without edge weights, with and
// without the degree filter, on the owned graph grown past the model's
// tables (under an empty overlay), on an overlay with appended records
// and new MACs, on a mapped v2 load with borrowed tables, and under
// both kernel backends.
// Runs under ASan/UBSan in CI.

#include "embed/bisage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gem.h"
#include "graph/graph_delta.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "store/mapped_model.h"
#include "store/snapshot_v2.h"

namespace gem::embed {
namespace {

using graph::Neighbor;
using graph::NodeId;
using math::kernels::Backend;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<Backend> Backends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (math::kernels::Avx2Available()) backends.push_back(Backend::kAvx2);
  return backends;
}

/// Restores the process-wide kernel backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(math::kernels::ActiveBackend()) {}
  ~BackendGuard() { math::kernels::ForceBackendForTest(saved_); }

 private:
  Backend saved_;
};

/// Records over a pool of `macs` shared MACs named `prefix`<i>, plus a
/// one-off MAC now and then (a degree-1 node for the min_mac_degree
/// filter) and an occasional empty record (an isolated node).
std::vector<rf::ScanRecord> RandomRecords(uint64_t seed, int count, int macs,
                                          const std::string& prefix) {
  math::Rng rng(seed);
  std::vector<rf::ScanRecord> records(count);
  for (int r = 0; r < count; ++r) {
    if (rng.Bernoulli(0.05)) continue;
    for (int m = 0; m < macs; ++m) {
      if (rng.Bernoulli(0.3)) {
        records[r].readings.push_back(rf::Reading{
            prefix + std::to_string(m), rng.Uniform(-95.0, -40.0),
            rf::Band::k2_4GHz});
      }
    }
    if (rng.Bernoulli(0.2)) {
      records[r].readings.push_back(
          rf::Reading{prefix + "solo" + std::to_string(r),
                      rng.Uniform(-95.0, -40.0), rf::Band::k2_4GHz});
    }
  }
  return records;
}

struct Case {
  int layers;
  bool use_edge_weights;
  int min_mac_degree;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const int layers : {1, 2, 3}) {
    for (const bool weights : {true, false}) {
      for (const int min_degree : {1, 2}) {
        cases.push_back({layers, weights, min_degree});
      }
    }
  }
  return cases;
}

std::string CaseName(const Case& c) {
  return "K=" + std::to_string(c.layers) +
         " weights=" + std::to_string(c.use_edge_weights) +
         " min_mac_degree=" + std::to_string(c.min_mac_degree);
}

BiSageConfig ConfigFor(const Case& c, uint64_t seed) {
  BiSageConfig config;
  config.dimension = 8;
  config.epochs = 1;
  config.seed = seed;
  config.num_layers = c.layers;
  config.fanouts.clear();
  for (int k = 0; k < c.layers; ++k) config.fanouts.push_back(4 - k);
  config.use_edge_weights = c.use_edge_weights;
  config.min_mac_degree = c.min_mac_degree;
  return config;
}

/// Layer-0 rows: a model's exported base tables, continued by an
/// overlay's delta rows for nodes appended after the base froze. Reads
/// go through const accessors only (the base may borrow a mapping).
struct Rows {
  const math::Matrix& h;
  const math::Matrix& l;
  const NodeTableDelta* delta = nullptr;

  const double* h_row(NodeId n) const {
    if (delta == nullptr || n < delta->base_rows()) return h.RowPtr(n);
    return delta->h_rows().RowPtr(n - delta->base_rows());
  }
  const double* l_row(NodeId n) const {
    if (delta == nullptr || n < delta->base_rows()) return l.RowPtr(n);
    return delta->l_rows().RowPtr(n - delta->base_rows());
  }
};

/// The inference recursion as it stood before the MAC table: every
/// (node, layer) visits its full neighborhood — a MAC at layer 1
/// included — with the same memo, MAC filter, coefficients and kernel
/// calls.
template <typename GraphLike>
class ReferenceForward {
 public:
  ReferenceForward(const BiSageConfig& config,
                   const BiSage::TrainedState& state, const GraphLike& graph,
                   Rows rows)
      : config_(config), state_(state), graph_(graph), rows_(rows) {}

  /// [h | l] of `node` at the top layer.
  std::vector<double> Embed(NodeId node) {
    memo_.clear();
    return Forward(node, config_.num_layers);
  }

 private:
  std::vector<double> Forward(NodeId node, int layer) {
    const int k = config_.num_layers;
    const long key = static_cast<long>(node) * (k + 1) + layer;
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    const int d = config_.dimension;
    const math::kernels::Ops& ops = math::kernels::Active();
    std::vector<double> out(2 * d);
    if (layer == 0) {
      std::copy_n(rows_.h_row(node), d, out.data());
      std::copy_n(rows_.l_row(node), d, out.data() + d);
    } else {
      const std::vector<double> self = Forward(node, layer - 1);
      const auto& adj = graph_.neighbors(node);
      std::vector<Neighbor> neighbors(adj.begin(), adj.end());
      std::erase_if(neighbors, [&](const Neighbor& nb) {
        if (graph_.type(nb.node) != graph::NodeType::kMac) return false;
        if (nb.node >= state_.trained_nodes) return true;
        return config_.min_mac_degree > 1 &&
               graph_.degree(nb.node) < config_.min_mac_degree;
      });
      std::vector<double> h_agg(d, 0.0);
      std::vector<double> l_agg(d, 0.0);
      if (!neighbors.empty()) {
        std::vector<double> coeffs(
            neighbors.size(), 1.0 / static_cast<double>(neighbors.size()));
        if (config_.use_edge_weights) {
          double total = 0.0;
          for (size_t i = 0; i < neighbors.size(); ++i) {
            coeffs[i] = neighbors[i].weight;
            total += neighbors[i].weight;
          }
          if (total <= 0.0) {
            std::fill(coeffs.begin(), coeffs.end(),
                      1.0 / static_cast<double>(neighbors.size()));
          } else {
            for (double& c : coeffs) c /= total;
          }
        }
        for (size_t i = 0; i < neighbors.size(); ++i) {
          const std::vector<double> child =
              Forward(neighbors[i].node, layer - 1);
          ops.add_scaled(h_agg.data(), child.data() + d, coeffs[i], d);
          ops.add_scaled(l_agg.data(), child.data(), coeffs[i], d);
        }
      }
      std::vector<double> cat(2 * d);
      std::copy_n(self.data(), d, cat.data());
      std::copy_n(h_agg.data(), d, cat.data() + d);
      ops.matvec(state_.w_h[layer - 1].ptr(), d, 2 * d, cat.data(),
                 out.data());
      std::copy_n(self.data() + d, d, cat.data());
      std::copy_n(l_agg.data(), d, cat.data() + d);
      ops.matvec(state_.w_l[layer - 1].ptr(), d, 2 * d, cat.data(),
                 out.data() + d);
      if (layer != k) {
        for (double& x : out) x = x > 0.0 ? x : 0.0;
      }
      for (double* half : {out.data(), out.data() + d}) {
        const double norm = std::sqrt(ops.dot(half, half, d));
        if (norm > 0.0) ops.scale(half, 1.0 / norm, d);
      }
    }
    memo_.emplace(key, out);
    return out;
  }

  const BiSageConfig& config_;
  const BiSage::TrainedState& state_;
  const GraphLike& graph_;
  Rows rows_;
  std::unordered_map<long, std::vector<double>> memo_;
};

/// memcmp of EmbedForward's h and l against the reference, per node.
void ExpectSameBits(const std::vector<double>& reference, const double* h,
                    const double* l, int d, NodeId node) {
  EXPECT_EQ(std::memcmp(h, reference.data(), d * sizeof(double)), 0)
      << "h of node " << node;
  EXPECT_EQ(std::memcmp(l, reference.data() + d, d * sizeof(double)), 0)
      << "l of node " << node;
}

/// Appends `extra` (new MACs among them) to an overlay over `base` and
/// checks every node of the merged graph, base and appended, MAC and
/// record, against the reference.
void CheckOverlay(const BiSage& model, const graph::BipartiteGraph& base,
                  const std::vector<rf::ScanRecord>& extra) {
  graph::GraphDelta delta;
  for (const rf::ScanRecord& record : extra) delta.AddRecord(base, record);
  const graph::OverlayGraphView view(base, delta);
  NodeTableDelta tables;
  model.PrepareInference(view, tables);
  const BiSage::TrainedState state = model.ExportTrained();
  ReferenceForward<graph::OverlayGraphView> reference(
      model.config(), state, view, Rows{state.h_table, state.l_table, &tables});

  const int d = model.config().dimension;
  BiSage::InferScratch scratch;
  std::vector<double> h(d);
  std::vector<double> l(d);
  for (NodeId node = 0; node < view.num_nodes(); ++node) {
    model.EmbedForward(view, tables, node, scratch, h.data(), l.data());
    ExpectSameBits(reference.Embed(node), h.data(), l.data(), d, node);
  }
}

/// Same over the owned graph: `extra` is appended to `graph` itself,
/// past the model's tables, and every node is embedded through an empty
/// overlay whose delta holds the rows past the tables. The graph
/// conveniences, which redraw those rows into a delta of their own,
/// must agree bit for bit.
void CheckOwned(const BiSage& model, graph::BipartiteGraph& graph,
                const std::vector<rf::ScanRecord>& extra) {
  for (const rf::ScanRecord& record : extra) graph.AddRecord(record);
  const graph::GraphDelta empty;
  const graph::OverlayGraphView view(graph, empty);
  NodeTableDelta tables;
  model.PrepareInference(view, tables);
  const BiSage::TrainedState state = model.ExportTrained();
  ASSERT_LT(state.h_table.rows(), graph.num_nodes());
  ReferenceForward<graph::BipartiteGraph> reference(
      model.config(), state, graph,
      Rows{state.h_table, state.l_table, &tables});

  const int d = model.config().dimension;
  BiSage::InferScratch scratch;
  std::vector<double> h(d);
  std::vector<double> l(d);
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const std::vector<double> expected = reference.Embed(node);
    model.EmbedForward(view, tables, node, scratch, h.data(), l.data());
    ExpectSameBits(expected, h.data(), l.data(), d, node);
    ExpectSameBits(expected, model.PrimaryEmbedding(graph, node).data(),
                   model.AuxiliaryEmbedding(graph, node).data(), d, node);
  }
}

// Owned base and overlay, every case, several seeds. Each model's table
// is built under one backend and then queried under every backend: the
// table path where they agree, the on-the-fly path where they do not.
TEST(BiSageLayer1TableTest, OwnedAndOverlayMatchFullRecursion) {
  const BackendGuard guard;
  for (const Backend build_backend : Backends()) {
    for (const Case& c : Cases()) {
      for (const uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(CaseName(c) + " seed=" + std::to_string(seed) +
                     " built under " +
                     math::kernels::BackendName(build_backend));
        math::kernels::ForceBackendForTest(build_backend);
        graph::BipartiteGraph graph;
        for (const rf::ScanRecord& record : RandomRecords(seed, 30, 12, "m")) {
          graph.AddRecord(record);
        }
        BiSage model(ConfigFor(c, seed));
        ASSERT_TRUE(model.Train(graph).ok());
        // Appended records mix trained MACs with new ones (ids at or
        // past trained_nodes_), which only an embedded MAC target
        // reaches at layer 1.
        std::vector<rf::ScanRecord> extra =
            RandomRecords(seed + 100, 6, 12, "m");
        const std::vector<rf::ScanRecord> fresh =
            RandomRecords(seed + 200, 4, 4, "new");
        for (size_t i = 0; i < fresh.size(); ++i) {
          extra[i].readings.insert(extra[i].readings.end(),
                                   fresh[i].readings.begin(),
                                   fresh[i].readings.end());
        }
        for (const Backend infer_backend : Backends()) {
          SCOPED_TRACE(std::string("queried under ") +
                       math::kernels::BackendName(infer_backend));
          math::kernels::ForceBackendForTest(infer_backend);
          CheckOverlay(model, graph, extra);
        }
        math::kernels::ForceBackendForTest(build_backend);
        CheckOwned(model, graph, extra);
      }
    }
  }
}

// Mapped v2 load: the table is built from tables borrowed straight off
// the mapping (const access only), then served through an overlay.
TEST(BiSageLayer1TableTest, MappedLoadMatchesFullRecursion) {
  const BackendGuard guard;
  for (const Backend backend : Backends()) {
    math::kernels::ForceBackendForTest(backend);
    for (const Case& c : Cases()) {
      SCOPED_TRACE(CaseName(c) + " under " +
                   math::kernels::BackendName(backend));
      core::GemConfig config;
      config.bisage = ConfigFor(c, 5);
      core::Gem trained(config);
      ASSERT_TRUE(trained.Train(RandomRecords(5, 40, 12, "m")).ok());
      const std::string path = TempPath("layer1_table_mapped.snap");
      ASSERT_TRUE(store::SaveSnapshotV2(path, trained).ok());
      StatusOr<store::MappedModel> mapped = store::MappedModel::Open(path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      const BiSageEmbedder& embedder = mapped->gem().embedder();
      ASSERT_TRUE(embedder.model().ExportTrained().h_table.borrowed());
      std::vector<rf::ScanRecord> extra = RandomRecords(105, 6, 12, "m");
      extra.push_back(RandomRecords(205, 1, 4, "new").front());
      CheckOverlay(embedder.model(), embedder.graph(), extra);
    }
  }
}

}  // namespace
}  // namespace gem::embed
