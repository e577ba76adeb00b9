#ifndef GEM_EMBED_BISAGE_H_
#define GEM_EMBED_BISAGE_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "base/thread_pool.h"
#include "embed/embedder.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_delta.h"
#include "math/autograd.h"
#include "math/flat_tape.h"
#include "math/kernels.h"
#include "math/optimizer.h"
#include "math/rng.h"

namespace gem::embed {

/// Hyperparameters of BiSAGE (Section IV-B). Defaults follow the
/// paper's tuned values (d = 32, lr = 0.003, K_N = 4) with sampling
/// and epoch sizes chosen so a full training run takes a couple of
/// seconds on one core.
struct BiSageConfig {
  int dimension = 32;
  /// K: number of aggregation layers.
  int num_layers = 2;
  /// Per-layer neighborhood sample sizes for training, outermost layer
  /// first (fanouts[0] neighbors of the target, fanouts[1] of each of
  /// those). Inference aggregates full neighborhoods.
  std::vector<int> fanouts = {6, 4};
  int walks_per_node = 2;
  int walk_length = 5;
  int epochs = 4;
  /// K_N in Equation (8).
  int num_negatives = 4;
  double learning_rate = 0.003;
  /// Training pairs accumulated per optimizer step.
  int batch_pairs = 16;
  /// Ablation switch: false replaces the weight-proportional neighbor
  /// sampling, weighted aggregation coefficients, and weighted random
  /// walks with uniform ones (the bi-level aggregation is kept). Used
  /// by the ablation bench to isolate the value of Section IV-B's
  /// non-uniform sampling.
  bool use_edge_weights = true;
  /// Inference-time aggregation skips MAC nodes with degree below
  /// this. A MAC seen in a single record ever (e.g., a passer-by's
  /// phone) has no relational information — its fixed random feature
  /// is pure noise — so it is excluded until it recurs. Set to 1 to
  /// disable the filter.
  int min_mac_degree = 2;
  uint64_t seed = 13;
  /// Worker threads used by Train() and batched inference. Runtime
  /// knob only: the model is bit-identical at every value and the
  /// count is not persisted in snapshots. Training runs its fixed
  /// four-shard waves on at most four of them (DESIGN.md §8).
  int num_threads = 1;

  /// kInvalidArgument describing the first offending field, Ok
  /// otherwise. Checked by BiSage at construction (softly: Train()
  /// reports it) and by Gem/serve at their entry points.
  Status Validate() const;
};

/// Per-overlay extension of BiSage's fixed initial-embedding tables:
/// rows for nodes past the trained tables, drawn from a continuation of
/// the base's init stream by the same row rule Train() grows the base
/// with — so every row matches, bit for bit, the row the base table
/// would hold had it been grown over the same nodes. Caller-owned (one
/// per overlay/fence, or call-local); bound to a specific BiSage base
/// on first use, after which Train() must not grow that base's tables.
class NodeTableDelta {
 public:
  NodeTableDelta() = default;

  bool empty() const { return h_rows_.rows() == 0; }
  /// Base table row count this delta was bound to (-1 until bound).
  int base_rows() const { return base_rows_; }
  const math::Matrix& h_rows() const { return h_rows_; }
  const math::Matrix& l_rows() const { return l_rows_; }

 private:
  friend class BiSage;
  int base_rows_ = -1;
  math::Matrix h_rows_;
  math::Matrix l_rows_;
  // Continuation of the base init stream, seeded from its saved state
  // at bind time.
  math::Rng rng_{0};
};

/// BiSAGE: inductive bipartite network embedding with bi-level
/// aggregation (paired primary/auxiliary embeddings per node),
/// weight-proportional neighborhood sampling, weighted random walks,
/// and the negative-sampling loss of Equation (8).
///
/// Following the paper, the learnable parameters are the per-layer
/// weight matrices {W_h^k}, {W_l^k}; the initial embeddings (h^0, l^0)
/// are fixed at creation ("chosen randomly"). MAC nodes carry fixed
/// random feature vectors (their identity); record nodes start at zero
/// so that a record's embedding is a pure function of its weighted MAC
/// membership — which is what makes the inductive embedding of brand-
/// new records (Section V-A) consistent with training.
class BiSage {
 public:
  /// An invalid config is held rather than CHECKed: Train() returns
  /// config_status() so callers (CLI flags, service config) surface it
  /// as kInvalidArgument instead of crashing.
  explicit BiSage(BiSageConfig config);

  /// Trains the weight matrices on the graph; the graph must contain
  /// at least one edge. Can be called again after the graph grows to
  /// fine-tune (not required for inference). Runs on
  /// config().num_threads workers; the learned bits do not depend on
  /// that count.
  Status Train(const graph::BipartiteGraph& graph);

  /// Primary embedding h^K of a node via K rounds of bi-level
  /// aggregation with the learned weights: EmbedForward over `view`
  /// with a per-thread scratch. Rows for nodes past the trained tables
  /// land in `tables`.
  math::Vec PrimaryEmbedding(const graph::OverlayGraphView& view,
                             NodeTableDelta& tables,
                             graph::NodeId node) const;

  /// PrimaryEmbedding over `graph` under an empty overlay. The model is
  /// only read: a node past the trained tables gets its rows drawn into
  /// a call-local NodeTableDelta, so repeated calls agree bit for bit.
  /// Streams of new records belong in an EmbedderOverlay instead.
  math::Vec PrimaryEmbedding(const graph::BipartiteGraph& graph,
                             graph::NodeId node) const;

  /// Auxiliary embedding l^K, same contract as PrimaryEmbedding(graph,
  /// node) (used by tests and diagnostics).
  math::Vec AuxiliaryEmbedding(const graph::BipartiteGraph& graph,
                               graph::NodeId node) const;

  /// Reusable workspace for the tape-free forward pass (EmbedForward).
  /// Holds a 32-byte-aligned value arena addressed by (node, layer)
  /// offsets, per-layer aggregation/concat temporaries, and neighbor
  /// buffers. One instance per thread; after the first call on a graph
  /// neighborhood of typical size, subsequent calls are allocation-free
  /// (buffers are reset, not released).
  class InferScratch {
   public:
    InferScratch() = default;

   private:
    friend class BiSage;
    void Reset(int num_layers, int dimension);

    /// Computed (h, l) values, one 2*d slab per memoized (node, layer);
    /// memo_ maps MemoKey(node, layer) to the slab's h offset (l at +d).
    math::kernels::AlignedVec arena_;
    std::unordered_map<long, size_t> memo_;
    /// Per layer: [h_agg d | l_agg d | concat 2d]. Stable storage, so
    /// aggregation can accumulate while child recursion grows arena_.
    math::kernels::AlignedVec temps_;
    /// Per-layer neighbor and coefficient buffers.
    std::vector<std::vector<graph::Neighbor>> neighbors_;
    std::vector<math::Vec> coeffs_;
  };

  /// Tape-free forward-only inference: evaluates Equations (3)-(7) for
  /// `node` of the merged graph `view` directly into caller-provided
  /// buffers — no tape node allocation, no per-node Vec copies. h_out /
  /// l_out must each hold dimension() doubles (either may be null to
  /// skip that side; no alignment required). Every layer aggregates
  /// the full neighborhood with exact normalized weights (neighborhood
  /// sampling is training-only), so an embedding is a pure function of
  /// the graph and the model. The model is only read (safe over an
  /// mmap-backed base shared across fences); layer-0 rows for nodes
  /// past the trained tables are drawn into `tables`. This is the hot
  /// path under EmbedNew/EmbedNewBatch and the serving engine's Infer*.
  void EmbedForward(const graph::OverlayGraphView& view,
                    NodeTableDelta& tables, graph::NodeId node,
                    InferScratch& scratch, double* h_out,
                    double* l_out = nullptr) const;

  /// Makes concurrent EmbedForward calls over `view` and `tables` safe:
  /// binds `tables` to this base on first call, then grows the delta
  /// rows to cover every node of `view` with the same row rule and
  /// draw order as EnsureCapacity, so the parallel reads that follow
  /// write nothing. Must be re-run after the delta grows.
  void PrepareInference(const graph::OverlayGraphView& view,
                        NodeTableDelta& tables) const;

  /// Mean training loss of the last epoch (diagnostic).
  double last_epoch_loss() const { return last_epoch_loss_; }
  const BiSageConfig& config() const { return config_; }
  /// Result of config().Validate() at construction.
  const Status& config_status() const { return config_status_; }
  bool trained() const { return trained_; }

  /// The worker pool backing Train() and batched inference
  /// (config().num_threads threads), created on first use and reused
  /// across epochs and batches.
  ThreadPool& thread_pool() const;

  /// Snapshot support (store/snapshot_v2.cc): everything Train() learned
  /// plus the node tables and their init stream, so a restored model
  /// embeds future nodes bit-identically to the original process.
  /// Optimizer moments are NOT persisted: a fine-tuning Train() after
  /// restore starts Adam fresh.
  struct TrainedState {
    math::Matrix h_table;
    math::Matrix l_table;
    std::vector<math::Matrix> w_h;
    std::vector<math::Matrix> w_l;
    math::Rng::State init_rng;
    int trained_nodes = 0;
    double last_epoch_loss = 0.0;
  };
  TrainedState ExportTrained() const;
  /// Merged trained state for overlay compaction: base tables with the
  /// delta rows appended and the init stream advanced past the delta's
  /// draws (the base state alone for a delta never bound). Every matrix
  /// in the result owns its bytes (safe to keep after the base's
  /// backing storage unmaps).
  TrainedState ExportTrained(const NodeTableDelta& tables) const;
  /// Overwrites the learned state and rebuilds the layer-1 MAC table
  /// for `graph`. Shapes must match this model's config (dimension d,
  /// per-layer d x 2d weights), the node tables may not extend past
  /// `graph`, and every record node's rows must be zero — the
  /// invariant the table rests on (kInvalidArgument otherwise).
  Status RestoreTrained(TrainedState state,
                        const graph::BipartiteGraph& graph);

 private:
  struct NodeVars {
    math::VarId h;
    math::VarId l;
  };

  /// The gradient stage's reusable state, allocated once per Train()
  /// and reused across every wave of every epoch so the steady-state
  /// stage is allocation-free. An executor (the calling thread or a
  /// pool task) owns a tape, a memo and per-layer sample buffers; a
  /// shard owns its private sink and loss. Defined in bisage.cc.
  struct GradExecutor;
  struct GradShard;

  using TrainPair = std::pair<graph::NodeId, graph::NodeId>;

  /// Grows the fixed initial-embedding tables to cover every node of
  /// `graph` (random rows for MAC nodes, zero rows for record nodes).
  /// Only Train() grows the base tables.
  void EnsureCapacity(const graph::BipartiteGraph& graph);

  /// Builds the (h^k, l^k) computation for `node` on the executor's
  /// tape, memoized per (node, layer) within the current gradient
  /// shard.
  NodeVars BuildNodeVars(GradExecutor& executor,
                         const graph::BipartiteGraph& graph,
                         graph::NodeId node, int layer, math::Rng& rng) const;

  /// Adds the Equation (8) loss terms of pairs[begin, end) to the
  /// executor's tape (positives plus num_negatives sampled negatives per
  /// pair), sharing its memo across the range. Accumulates the loss
  /// value and term count.
  void AccumulateShardLoss(GradExecutor& executor,
                           const graph::BipartiteGraph& graph,
                           const std::vector<TrainPair>& pairs, size_t begin,
                           size_t end, math::Rng& rng, double& loss,
                           long& terms) const;

  /// One gradient shard on `executor`: resets the executor's tape and
  /// memo and the shard's sink, seeds the RNG from `stream`, builds and
  /// backpropagates the loss of pairs[begin, end) into the shard's
  /// sink. Writes nothing but `executor` and `shard`.
  void RunGradShard(GradExecutor& executor, GradShard& shard,
                    const graph::BipartiteGraph& graph,
                    const std::vector<TrainPair>& pairs, size_t begin,
                    size_t end, uint64_t stream) const;

  /// Forward-pass context: the merged graph plus the layer-0 rows of
  /// base and delta (defined in bisage.cc).
  struct OverlayCtx;

  /// Recursive worker of EmbedForward: returns the arena offset of the
  /// memoized (h^layer, l^layer) slab for `node`.
  size_t ForwardNode(const OverlayCtx& ctx, graph::NodeId node, int layer,
                     InferScratch& scratch) const;

  /// Equations (4), (6), (7) for one node at `layer`, written to `out`
  /// as one 2*d slab [h | l]: h = normalize(σ(W_h [self_h ; h_agg])),
  /// dually for l, with σ = ReLU below the top layer and the identity
  /// at it. `cat` is 2*d scratch.
  void UpdateNode(const math::kernels::Ops& ops, int layer,
                  const double* self_h, const double* self_l,
                  const double* h_agg, const double* l_agg, double* cat,
                  double* out) const;

  /// (h^1, l^1) of a MAC node from its layer-0 rows: UpdateNode with
  /// both aggregates +0.0. `temp` is 4*d scratch.
  void MacLayer1(const math::kernels::Ops& ops, const double* h0,
                 const double* l0, double* temp, double* out) const;

  /// Recomputes layer1_ for the MACs of `graph` below trained_nodes_
  /// with the active kernels.
  void BuildLayer1Table(const graph::BipartiteGraph& graph);

  /// The precomputed (h^1, l^1) slab of `node`, or null when the table
  /// has none for it or was computed with other kernels than `ops`.
  const double* Layer1Slab(graph::NodeId node,
                           const math::kernels::Ops& ops) const;

  BiSageConfig config_;
  Status config_status_;
  // Fixed initial embeddings, grown only by Train(); rows for later
  // nodes live in a caller's NodeTableDelta.
  math::Matrix h_table_;
  math::Matrix l_table_;
  math::Rng init_rng_;
  /// Node count when Train() last ran: MAC nodes added later carry
  /// features the weight matrices never saw, so inference aggregation
  /// skips them (they still count toward graph connectivity).
  int trained_nodes_ = 0;
  /// (h^1, l^1) of every MAC below trained_nodes_, one 2*d slab each.
  /// Record nodes start from zero rows and a MAC's neighbors are all
  /// records, so a MAC's layer-1 aggregates are exactly +0.0 and its
  /// (h^1, l^1) depends only on its own rows and W^1. Derived state:
  /// rebuilt by Train() and RestoreTrained(), never persisted.
  struct Layer1Table {
    /// Slab index per node id below trained_nodes_; -1 for records.
    std::vector<int> slab_of;
    math::kernels::AlignedVec slabs;
    /// Kernels the slabs were computed with. Under any other backend
    /// ForwardNode computes layer 1 instead, so results stay bit-exact
    /// for the active backend.
    const math::kernels::Ops* ops = nullptr;
  };
  Layer1Table layer1_;
  std::vector<std::unique_ptr<math::Parameter>> w_h_;
  std::vector<std::unique_ptr<math::Parameter>> w_l_;
  std::unique_ptr<math::Adam> adam_;
  mutable std::unique_ptr<ThreadPool> pool_;
  double last_epoch_loss_ = 0.0;
  bool trained_ = false;
};

/// Mutable per-fence state for the read-only embedding path: graph
/// appends (new records/MACs, touched base rows) and lazily-drawn
/// node-table rows land here while the base embedder stays frozen.
/// One instance per overlay (core::GemOverlay owns one per fence).
struct EmbedderOverlay {
  graph::GraphDelta graph;
  NodeTableDelta tables;

  bool empty() const { return graph.empty() && tables.empty(); }
};

/// RecordEmbedder adapter: owns a BipartiteGraph + BiSage, maps
/// records to graph nodes, and embeds new records over an overlay: the
/// graph stays as Fit() built it.
class BiSageEmbedder : public RecordEmbedder {
 public:
  explicit BiSageEmbedder(BiSageConfig config = {},
                          graph::EdgeWeightConfig weight_config = {});

  /// Fits once: kFailedPrecondition, changing nothing, once the graph
  /// holds nodes (after a Fit past the empty-input check, or after
  /// RestoreFitted).
  Status Fit(const std::vector<rf::ScanRecord>& train) override;
  math::Vec TrainEmbedding(int i) const override;
  int num_train() const override { return num_train_; }
  /// EmbedNew(record, overlay) over the embedder's own overlay, which
  /// RestoreFitted() resets.
  StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record) override;
  int dimension() const override { return model_.config().dimension; }

  /// Read-side EmbedNew: the base graph/model are only read, all
  /// appends land in `overlay`. Paper footnote 3 / Section V-A: the
  /// record is always appended (to the delta), and kNotFound signals
  /// that it shares no MAC with base + delta; kFailedPrecondition when
  /// the model is not trained.
  StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record,
                               EmbedderOverlay& overlay) const;

  /// Batched EmbedNew on the model's thread pool. All records are
  /// appended to `overlay` first, in input order (so each record's
  /// connectivity check sees every earlier record of the batch, same
  /// as sequential EmbedNew calls), then embedded in parallel against
  /// the batch-complete graph. Each embedding is a pure function of
  /// that graph and the model, so the result is bit-identical at any
  /// thread count. Slot i carries record i's embedding, kNotFound (no
  /// shared MAC), or kFailedPrecondition (model not trained).
  std::vector<StatusOr<math::Vec>> EmbedNewBatch(
      const std::vector<rf::ScanRecord>& records,
      EmbedderOverlay& overlay) const;

  /// Merged-graph view over the frozen base plus `overlay`'s delta.
  graph::OverlayGraphView OverlayView(const EmbedderOverlay& overlay) const {
    return graph::OverlayGraphView(graph_, overlay.graph);
  }

  const graph::BipartiteGraph& graph() const { return graph_; }
  BiSage& model() { return model_; }
  const BiSage& model() const { return model_; }
  const std::vector<graph::NodeId>& train_nodes() const {
    return train_nodes_;
  }

  /// Snapshot support (store/snapshot_v2.cc): swaps in a persisted graph,
  /// training-node list, and trained model state.
  Status RestoreFitted(graph::BipartiteGraph graph,
                       std::vector<graph::NodeId> train_nodes,
                       BiSage::TrainedState model_state);

 private:
  graph::BipartiteGraph graph_;
  BiSage model_;
  std::vector<graph::NodeId> train_nodes_;
  int num_train_ = 0;
  /// Backs the RecordEmbedder stream EmbedNew(record).
  EmbedderOverlay overlay_;
};

}  // namespace gem::embed

#endif  // GEM_EMBED_BISAGE_H_
