#include "embed/bisage.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/check.h"
#include "base/logging.h"
#include "math/vec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gem::embed {
namespace {

// Salts separating the independent RNG stream families Train() draws
// from (walks, epoch shuffles, per-group sampling) so no two families
// ever share a stream for any (seed, id) combination.
constexpr uint64_t kWalkStreamSalt = 0x9E2AB15A6E000001ULL;
constexpr uint64_t kShuffleStreamSalt = 0x9E2AB15A6E000002ULL;
constexpr uint64_t kGroupStreamSalt = 0x9E2AB15A6E000003ULL;

/// Shards per training wave, and walk chunks per epoch: the one
/// training schedule. A wave is up to kWaveShards shards of batch_pairs
/// pairs, folded into one Adam step, and the walks split into the same
/// number of chunk streams, whatever the thread count. So the thread
/// count cannot reach the learned bits, and at most kWaveShards
/// threads do training work.
constexpr int kWaveShards = 4;

/// Memoization key for (node, layer) pairs.
long MemoKey(graph::NodeId node, int layer, int num_layers) {
  return static_cast<long>(node) * (num_layers + 1) + layer;
}

/// Normalized aggregation coefficients of a neighbor multiset
/// (the paper's weighted aggregator; uniform under the ablation),
/// written into a caller-owned buffer so training and inference reuse
/// its capacity.
void AggregationCoeffsInto(const std::vector<graph::Neighbor>& sampled,
                           bool use_edge_weights, math::Vec& coeffs) {
  coeffs.assign(sampled.size(), 0.0);
  if (!use_edge_weights) {
    std::fill(coeffs.begin(), coeffs.end(),
              1.0 / static_cast<double>(sampled.size()));
    return;
  }
  double total = 0.0;
  for (size_t i = 0; i < sampled.size(); ++i) {
    coeffs[i] = sampled[i].weight;
    total += sampled[i].weight;
  }
  if (total <= 0.0) {
    std::fill(coeffs.begin(), coeffs.end(),
              1.0 / static_cast<double>(sampled.size()));
  } else {
    for (double& c : coeffs) c /= total;
  }
}

/// In-place l2 normalization matching math::NormalizeL2's contract
/// (zero vectors pass through) on a raw kernel buffer.
void NormalizeInPlace(const math::kernels::Ops& ops, double* x, int n) {
  const double norm = std::sqrt(ops.dot(x, x, n));
  if (norm > 0.0) ops.scale(x, 1.0 / norm, n);
}

/// Uniform with-replacement neighbor draw into `out` (ablation of the
/// weight-proportional sampling; same contract as SampleNeighbors).
void SampleUniform(const graph::BipartiteGraph& graph, graph::NodeId node,
                   int count, math::Rng& rng,
                   std::vector<graph::Neighbor>& out) {
  out.clear();
  const auto& adj = graph.neighbors(node);
  if (adj.empty()) return;
  for (int i = 0; i < count; ++i) {
    out.push_back(adj[rng.UniformInt(static_cast<int>(adj.size()))]);
  }
}

/// Grows the layer-0 tables (h, l), whose row 0 holds node `first`, to
/// cover every node of `graph`, drawing from `rng`. The one row rule of
/// every BiSage table, base or overlay delta: MAC nodes carry fixed
/// random features — their identity in the embedding space. Record
/// nodes start at zero: a record's identity is entirely its (weighted)
/// MAC membership, so training and the inductive embedding of future
/// records see exactly the same input distribution. (A per-record
/// random h^0 would be pure noise in the self half of the CONCAT of
/// Equations (4)/(6).) The h and l draws interleave per coordinate, so
/// a delta continuing the base's init stream holds exactly the rows
/// the base table would get over the same nodes.
template <typename GraphLike>
void AppendNodeRows(const GraphLike& graph, graph::NodeId first, int d,
                    math::Rng& rng, math::Matrix& h, math::Matrix& l) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (graph::NodeId node = first + h.rows(); node < graph.num_nodes();
       ++node) {
    math::Vec h_row(d, 0.0);
    math::Vec l_row(d, 0.0);
    if (graph.type(node) == graph::NodeType::kMac) {
      for (int i = 0; i < d; ++i) {
        h_row[i] = rng.Uniform(-scale, scale);
        l_row[i] = rng.Uniform(-scale, scale);
      }
    }
    h.AppendRow(h_row);
    l.AppendRow(l_row);
  }
}

}  // namespace

/// Forward context: graph reads go through the merged view, layer-0
/// rows come from the frozen base tables for nodes below them and from
/// the delta past them.
struct BiSage::OverlayCtx {
  const graph::OverlayGraphView& view;
  const math::Matrix& base_h;
  const math::Matrix& base_l;
  const NodeTableDelta& tables;

  const double* h_row(graph::NodeId n) const {
    return n < tables.base_rows_
               ? base_h.RowPtr(n)
               : tables.h_rows_.RowPtr(n - tables.base_rows_);
  }
  const double* l_row(graph::NodeId n) const {
    return n < tables.base_rows_
               ? base_l.RowPtr(n)
               : tables.l_rows_.RowPtr(n - tables.base_rows_);
  }
};

Status BiSageConfig::Validate() const {
  if (dimension < 1) {
    return Status::InvalidArgument("bisage: dimension must be >= 1, got " +
                                   std::to_string(dimension));
  }
  if (num_layers < 1) {
    return Status::InvalidArgument("bisage: num_layers must be >= 1, got " +
                                   std::to_string(num_layers));
  }
  if (static_cast<int>(fanouts.size()) != num_layers) {
    return Status::InvalidArgument(
        "bisage: fanouts must have one entry per layer (" +
        std::to_string(num_layers) + "), got " +
        std::to_string(fanouts.size()));
  }
  for (const int fanout : fanouts) {
    if (fanout < 1) {
      return Status::InvalidArgument(
          "bisage: training fanouts must be >= 1, got " +
          std::to_string(fanout));
    }
  }
  if (walks_per_node < 1) {
    return Status::InvalidArgument("bisage: walks_per_node must be >= 1");
  }
  if (walk_length < 1) {
    return Status::InvalidArgument("bisage: walk_length must be >= 1");
  }
  if (epochs < 1) {
    return Status::InvalidArgument("bisage: epochs must be >= 1");
  }
  if (num_negatives < 0) {
    return Status::InvalidArgument("bisage: num_negatives must be >= 0");
  }
  if (!(learning_rate > 0.0) || !std::isfinite(learning_rate)) {
    return Status::InvalidArgument(
        "bisage: learning_rate must be positive and finite");
  }
  if (batch_pairs < 1) {
    return Status::InvalidArgument("bisage: batch_pairs must be >= 1");
  }
  if (min_mac_degree < 1) {
    return Status::InvalidArgument("bisage: min_mac_degree must be >= 1");
  }
  return ThreadPoolOptions{num_threads}.Validate();
}

BiSage::BiSage(BiSageConfig config)
    : config_(std::move(config)), init_rng_(config_.seed ^ 0xB15A6EULL) {
  config_status_ = config_.Validate();
  if (!config_status_.ok()) return;

  const int d = config_.dimension;
  h_table_ = math::Matrix(0, d);
  l_table_ = math::Matrix(0, d);
  adam_ = std::make_unique<math::Adam>(config_.learning_rate);

  math::Rng weight_rng(config_.seed);
  for (int k = 0; k < config_.num_layers; ++k) {
    w_h_.push_back(std::make_unique<math::Parameter>(d, 2 * d));
    w_l_.push_back(std::make_unique<math::Parameter>(d, 2 * d));
    w_h_.back()->value.FillGlorot(weight_rng);
    w_l_.back()->value.FillGlorot(weight_rng);
    adam_->Register(w_h_.back().get());
    adam_->Register(w_l_.back().get());
  }
}

ThreadPool& BiSage::thread_pool() const {
  GEM_CHECK(config_status_.ok());
  if (!pool_) pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  return *pool_;
}

void BiSage::EnsureCapacity(const graph::BipartiteGraph& graph) {
  AppendNodeRows(graph, 0, config_.dimension, init_rng_, h_table_, l_table_);
}

// Each on its own cache lines: executors grow their tapes and memos,
// and shards add up their losses, concurrently.
struct alignas(64) BiSage::GradExecutor {
  /// One (node, layer)'s vars, live while stamp is the executor's.
  struct MemoEntry {
    uint64_t stamp = 0;
    NodeVars vars;
  };
  /// One layer's neighbor sample, its coefficients and its children's
  /// vars. A build at layer k recurses only into layers below k, so one
  /// set per layer is never in use twice.
  struct LayerBuffers {
    std::vector<graph::Neighbor> sampled;
    math::Vec coeffs;
    std::vector<math::VarId> neighbor_l;
    std::vector<math::VarId> neighbor_h;
  };

  /// Sizes the memo for `graph` and the per-layer buffers.
  void SizeFor(const graph::BipartiteGraph& graph,
               const BiSageConfig& config) {
    memo.resize(static_cast<size_t>(graph.num_nodes()) *
                (config.num_layers + 1));
    layers.resize(config.num_layers);
    zeros.assign(config.dimension, 0.0);
  }

  /// Starts a shard: a new stamp empties the memo without touching it.
  void StartShard() {
    tape.Clear();
    zero_leaf = -1;
    ++stamp;
  }

  /// The shard's one constant zero vector, built on first use.
  math::VarId ZeroLeaf() {
    if (zero_leaf < 0) zero_leaf = tape.Leaf(zeros);
    return zero_leaf;
  }

  math::FlatTape tape;
  /// Indexed by MemoKey.
  std::vector<MemoEntry> memo;
  uint64_t stamp = 0;
  /// Index layer - 1.
  std::vector<LayerBuffers> layers;
  math::Vec zeros;
  math::VarId zero_leaf = -1;
};

struct alignas(64) BiSage::GradShard {
  math::ParamGradSink sink;
  double loss = 0.0;
  long terms = 0;
};

BiSage::NodeVars BiSage::BuildNodeVars(GradExecutor& executor,
                                       const graph::BipartiteGraph& graph,
                                       graph::NodeId node, int layer,
                                       math::Rng& rng) const {
  // The memo never resizes during a shard, so the entry stays put while
  // the children below are built.
  GradExecutor::MemoEntry& entry =
      executor.memo[MemoKey(node, layer, config_.num_layers)];
  if (entry.stamp == executor.stamp) return entry.vars;

  math::FlatTape& tape = executor.tape;
  NodeVars vars;
  if (layer == 0) {
    const size_t d = static_cast<size_t>(config_.dimension);
    vars.h = tape.Leaf(h_table_.RowPtr(node), d);
    vars.l = tape.Leaf(l_table_.RowPtr(node), d);
  } else {
    const NodeVars self = BuildNodeVars(executor, graph, node, layer - 1, rng);
    const int fanout = config_.fanouts[config_.num_layers - layer];
    GradExecutor::LayerBuffers& buffers = executor.layers[layer - 1];
    if (config_.use_edge_weights) {
      graph.SampleNeighbors(node, fanout, rng, buffers.sampled);
    } else {
      SampleUniform(graph, node, fanout, rng, buffers.sampled);
    }

    math::VarId h_agg;
    math::VarId l_agg;
    if (buffers.sampled.empty() ||
        (layer == 1 && graph.type(node) == graph::NodeType::kMac)) {
      // An isolated node aggregates nothing; the update still mixes its
      // own lower-layer embedding through the weight matrix. A MAC at
      // layer 1 has drawn its sample (the RNG stream moves as if it
      // were used), but its neighbors are records, whose layer-0 rows
      // are zero: both aggregates are exactly +0.0, the value the
      // inference layer-1 table rests on too, and as constants they
      // would get no gradient.
      h_agg = l_agg = executor.ZeroLeaf();
    } else {
      AggregationCoeffsInto(buffers.sampled, config_.use_edge_weights,
                            buffers.coeffs);
      buffers.neighbor_l.clear();
      buffers.neighbor_h.clear();
      for (const graph::Neighbor& nb : buffers.sampled) {
        const NodeVars child =
            BuildNodeVars(executor, graph, nb.node, layer - 1, rng);
        buffers.neighbor_l.push_back(child.l);
        buffers.neighbor_h.push_back(child.h);
      }
      // Equation (3): primary aggregates neighbors' auxiliaries.
      h_agg = tape.WeightedSum(buffers.neighbor_l, buffers.coeffs);
      // Equation (5): auxiliary aggregates neighbors' primaries.
      l_agg = tape.WeightedSum(buffers.neighbor_h, buffers.coeffs);
    }
    // Equations (4), (6), (7). The top layer is linear (no ReLU):
    // a ReLU there would confine embeddings to the positive orthant,
    // making the negative terms of Equation (8) unsatisfiable.
    const math::VarId h_lin =
        tape.MatVec(w_h_[layer - 1].get(), tape.Concat(self.h, h_agg));
    const math::VarId l_lin =
        tape.MatVec(w_l_[layer - 1].get(), tape.Concat(self.l, l_agg));
    if (layer == config_.num_layers) {
      vars.h = tape.L2Normalize(h_lin);
      vars.l = tape.L2Normalize(l_lin);
    } else {
      vars.h = tape.L2Normalize(tape.Relu(h_lin));
      vars.l = tape.L2Normalize(tape.Relu(l_lin));
    }
  }
  entry.stamp = executor.stamp;
  entry.vars = vars;
  return vars;
}

void BiSage::AccumulateShardLoss(GradExecutor& executor,
                                 const graph::BipartiteGraph& graph,
                                 const std::vector<TrainPair>& pairs,
                                 size_t begin, size_t end, math::Rng& rng,
                                 double& loss, long& terms) const {
  math::FlatTape& tape = executor.tape;
  for (size_t p = begin; p < end; ++p) {
    const auto [x, y] = pairs[p];
    const NodeVars vx =
        BuildNodeVars(executor, graph, x, config_.num_layers, rng);
    const NodeVars vy =
        BuildNodeVars(executor, graph, y, config_.num_layers, rng);
    // Positive part of Equation (8).
    loss += tape.AddLogSigmoidLoss(tape.Dot(vx.h, vy.l), +1.0);
    loss += tape.AddLogSigmoidLoss(tape.Dot(vx.l, vy.h), +1.0);
    terms += 2;
    // Negative part: K_N nodes drawn ~ deg^{3/4}.
    for (int n = 0; n < config_.num_negatives; ++n) {
      const graph::NodeId z = graph.SampleNegative(rng);
      const NodeVars vz =
          BuildNodeVars(executor, graph, z, config_.num_layers, rng);
      loss += tape.AddLogSigmoidLoss(tape.Dot(vx.h, vz.l), -1.0);
      loss += tape.AddLogSigmoidLoss(tape.Dot(vx.l, vz.h), -1.0);
      terms += 2;
    }
  }
}

void BiSage::RunGradShard(GradExecutor& executor, GradShard& shard,
                          const graph::BipartiteGraph& graph,
                          const std::vector<TrainPair>& pairs, size_t begin,
                          size_t end, uint64_t stream) const {
  GEM_TRACE_SPAN("bisage.gradient");
  shard.sink.ZeroAll();
  executor.StartShard();
  shard.loss = 0.0;
  shard.terms = 0;
  math::Rng rng(
      math::Rng::StreamSeed(config_.seed ^ kGroupStreamSalt, stream));
  {
    GEM_TRACE_SPAN("bisage.forward");
    AccumulateShardLoss(executor, graph, pairs, begin, end, rng, shard.loss,
                        shard.terms);
  }
  GEM_TRACE_SPAN("bisage.backward");
  executor.tape.Backward(shard.sink);
}

Status BiSage::Train(const graph::BipartiteGraph& graph) {
  GEM_TRACE_SPAN("bisage.train");
  static obs::Counter& walk_count =
      obs::MetricsRegistry::Get().GetCounter("gem_bisage_walks_total");
  static obs::Counter& pair_count =
      obs::MetricsRegistry::Get().GetCounter("gem_bisage_pairs_total");
  static obs::Gauge& loss_gauge =
      obs::MetricsRegistry::Get().GetGauge("gem_bisage_epoch_loss");
  static obs::Histogram& epoch_seconds =
      obs::MetricsRegistry::Get().GetHistogram("gem_bisage_epoch_seconds",
                                               obs::LatencyBuckets());

  if (!config_status_.ok()) return config_status_;
  if (graph.num_nodes() == 0) {
    return Status::FailedPrecondition("graph is empty");
  }
  // Everything lazily built that the parallel sections read must exist
  // before the first worker touches it: node tables (EnsureCapacity),
  // per-node alias samplers and the negative-sampling table
  // (WarmCaches). After this, workers only read the graph.
  EnsureCapacity(graph);
  graph.WarmCaches();
  ThreadPool& pool = thread_pool();

  // Walks start from record nodes only — the loss of Equation (8) is
  // symmetric in (x, y) and walks alternate sides, so every MAC node
  // on a walk still contributes pairs, at half the walk budget.
  std::vector<graph::NodeId> starts;
  for (graph::NodeId node = 0; node < graph.num_nodes(); ++node) {
    if (graph.type(node) != graph::NodeType::kRecord) continue;
    if (graph.degree(node) == 0) continue;
    starts.push_back(node);
  }
  if (starts.empty()) {
    return Status::FailedPrecondition("graph has no edges to walk");
  }

  // Both stages split their work into kWaveShards items (walk chunks,
  // gradient shards) and hand each EXECUTOR (the calling thread or a
  // pool task) a contiguous run of items: at 4 threads one item each,
  // at 1 thread all of them. An item's bits depend only on its index.
  const int num_executors = std::min(pool.num_threads(), kWaveShards);

  // Generate the training pairs from weighted random walks: every
  // consecutive (x, y) in a walk is a positive pair. The starts split
  // into kWaveShards chunks; chunk c draws from walk stream c and
  // writes its own buffer, and the buffers concatenate in chunk order.
  std::vector<std::vector<TrainPair>> chunk_pairs(kWaveShards);
  {
  GEM_TRACE_SPAN("bisage.walks");
  pool.ParallelForChunked(
      kWaveShards, num_executors, [&](int, long first, long last) {
        for (long chunk = first; chunk < last; ++chunk) {
          GEM_TRACE_SPAN("bisage.walk_chunk");
          auto& out = chunk_pairs[chunk];
          math::Rng rng(math::Rng::StreamSeed(
              config_.seed ^ kWalkStreamSalt, static_cast<uint64_t>(chunk)));
          const auto [begin, end] = StaticChunkRange(
              static_cast<long>(starts.size()), kWaveShards, chunk);
          for (long i = begin; i < end; ++i) {
            const graph::NodeId node = starts[i];
            for (int w = 0; w < config_.walks_per_node; ++w) {
              std::vector<graph::NodeId> walk;
              if (config_.use_edge_weights) {
                walk = graph.RandomWalk(node, config_.walk_length, rng);
              } else {
                walk.push_back(node);
                graph::NodeId current = node;
                for (int step = 0; step < config_.walk_length; ++step) {
                  const auto& adj = graph.neighbors(current);
                  if (adj.empty()) break;
                  current =
                      adj[rng.UniformInt(static_cast<int>(adj.size()))].node;
                  walk.push_back(current);
                }
              }
              for (size_t j = 0; j + 1 < walk.size(); ++j) {
                out.emplace_back(walk[j], walk[j + 1]);
              }
            }
          }
        }
      });
  }
  walk_count.Increment(starts.size() *
                       static_cast<size_t>(config_.walks_per_node));

  std::vector<TrainPair> pairs;
  {
    GEM_TRACE_SPAN("bisage.concat_pairs");
    size_t total_pairs = 0;
    for (const auto& chunk : chunk_pairs) total_pairs += chunk.size();
    pairs.reserve(total_pairs);
    for (const auto& chunk : chunk_pairs) {
      pairs.insert(pairs.end(), chunk.begin(), chunk.end());
    }
  }
  if (pairs.empty()) {
    return Status::FailedPrecondition("graph has no edges to walk");
  }
  pair_count.Increment(pairs.size());

  // Gradient stage. A WAVE is up to kWaveShards SHARDS of batch_pairs
  // pairs each: shard s covers pairs [wave_start + s*batch_pairs, ...)
  // and draws its neighborhood samples and negatives from stream
  // group_stream + s. Each executor builds its shards on its own tape,
  // each into the shard's private sink. The sinks then fold tree-wise
  // (the shape fixed by the shard count), and the wave takes ONE Adam
  // step on the root sink. Which executor ran which shard cannot
  // reach the bits: a shard writes only its own sink and the fold
  // order depends on the shard count alone.
  std::vector<GradExecutor> executors(num_executors);
  for (GradExecutor& executor : executors) executor.SizeFor(graph, config_);
  std::vector<GradShard> shards(kWaveShards);
  const size_t full = static_cast<size_t>(config_.batch_pairs);

  uint64_t group_stream = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    {
      GEM_TRACE_SPAN("bisage.shuffle");
      math::Rng shuffle_rng(math::Rng::StreamSeed(
          config_.seed ^ kShuffleStreamSalt, static_cast<uint64_t>(epoch)));
      shuffle_rng.Shuffle(pairs);
    }
    double epoch_loss = 0.0;
    long loss_terms = 0;

    size_t wave_start = 0;
    while (wave_start < pairs.size()) {
      const size_t remaining = pairs.size() - wave_start;
      const long num_shards = std::min<long>(
          kWaveShards, static_cast<long>((remaining + full - 1) / full));
      pool.ParallelForChunked(
          num_shards, num_executors, [&](int executor, long first, long last) {
            for (long s = first; s < last; ++s) {
              const size_t begin = wave_start + static_cast<size_t>(s) * full;
              RunGradShard(executors[executor], shards[s], graph, pairs,
                           begin, std::min(begin + full, pairs.size()),
                           group_stream + static_cast<uint64_t>(s));
            }
          });
      {
        GEM_TRACE_SPAN("bisage.reduce");
        for (long stride = 1; stride < num_shards; stride *= 2) {
          for (long i = 0; i + stride < num_shards; i += 2 * stride) {
            shards[i].sink.MergeFrom(shards[i + stride].sink);
            shards[i].loss += shards[i + stride].loss;
            shards[i].terms += shards[i + stride].terms;
          }
        }
        epoch_loss += shards[0].loss;
        loss_terms += shards[0].terms;
        adam_->Step(shards[0].sink);
      }
      group_stream += static_cast<uint64_t>(num_shards);
      wave_start += std::min(remaining, static_cast<size_t>(num_shards) * full);
    }
    last_epoch_loss_ = epoch_loss / static_cast<double>(loss_terms);
    loss_gauge.Set(last_epoch_loss_);
    epoch_seconds.Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - epoch_start)
                              .count());
    GEM_LOG(Debug) << "bisage epoch " << epoch + 1 << "/" << config_.epochs
                   << " loss=" << last_epoch_loss_;
  }
  trained_ = true;
  trained_nodes_ = graph.num_nodes();
  BuildLayer1Table(graph);
  return Status::Ok();
}

void BiSage::InferScratch::Reset(int num_layers, int dimension) {
  arena_.clear();
  memo_.clear();
  temps_.assign(static_cast<size_t>(num_layers) * 4 * dimension, 0.0);
  neighbors_.resize(num_layers);
  coeffs_.resize(num_layers);
}

size_t BiSage::ForwardNode(const OverlayCtx& ctx, graph::NodeId node,
                           int layer, InferScratch& scratch) const {
  const long key = MemoKey(node, layer, config_.num_layers);
  const auto it = scratch.memo_.find(key);
  if (it != scratch.memo_.end()) return it->second;

  const graph::OverlayGraphView& view = ctx.view;
  const int d = config_.dimension;
  const math::kernels::Ops& ops = math::kernels::Active();
  size_t off;
  if (layer == 0) {
    off = scratch.arena_.size();
    scratch.arena_.resize(off + 2 * d);
    std::copy_n(ctx.h_row(node), d, scratch.arena_.data() + off);
    std::copy_n(ctx.l_row(node), d, scratch.arena_.data() + off + d);
  } else if (layer == 1 && view.type(node) == graph::NodeType::kMac) {
    // Every neighbor of a MAC is a record, and record rows are zero, so
    // both layer-1 aggregates are exactly +0.0: (h^1, l^1) comes from
    // the MAC table without touching the adjacency. A MAC the table
    // lacks (first seen after training, reached only as an embedded
    // target's self chain), or any MAC under other kernels than the
    // table's, is computed from its rows the same way.
    off = scratch.arena_.size();
    scratch.arena_.resize(off + 2 * d);
    double* out = scratch.arena_.data() + off;
    if (const double* slab = Layer1Slab(node, ops)) {
      std::copy_n(slab, 2 * d, out);
    } else {
      MacLayer1(ops, ctx.h_row(node), ctx.l_row(node), scratch.temps_.data(),
                out);
    }
  } else {
    const size_t self_off = ForwardNode(ctx, node, layer - 1, scratch);
    // The full neighborhood with exact weights: a deterministic,
    // variance-free aggregation, copied into the reused per-layer
    // buffer, never freshly allocated.
    std::vector<graph::Neighbor>& neighbors = scratch.neighbors_[layer - 1];
    const auto& adj = view.neighbors(node);
    neighbors.assign(adj.begin(), adj.end());
    // Drop MAC neighbors the model cannot interpret: singletons
    // (degree < min_mac_degree, e.g. a passer-by's phone — no
    // relational information) and MACs first seen after training
    // (their random features never passed through the learned weight
    // matrices, so they would only inject noise into embeddings the
    // detector was calibrated on).
    neighbors.erase(
        std::remove_if(neighbors.begin(), neighbors.end(),
                       [&](const graph::Neighbor& nb) {
                         if (view.type(nb.node) !=
                             graph::NodeType::kMac) {
                           return false;
                         }
                         if (nb.node >= trained_nodes_) return true;
                         return config_.min_mac_degree > 1 &&
                                view.degree(nb.node) <
                                    config_.min_mac_degree;
                       }),
        neighbors.end());

    // Stable per-layer temporaries: child recursion below may grow the
    // arena (invalidating arena pointers), so aggregation accumulates
    // here and arena pointers are re-derived from offsets after every
    // recursive call.
    double* temp = scratch.temps_.data() + static_cast<size_t>(layer - 1) * 4 * d;
    double* h_agg = temp;
    double* l_agg = temp + d;
    double* cat = temp + 2 * d;
    std::fill_n(h_agg, 2 * d, 0.0);
    if (!neighbors.empty()) {
      math::Vec& coeffs = scratch.coeffs_[layer - 1];
      AggregationCoeffsInto(neighbors, config_.use_edge_weights, coeffs);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const size_t child_off =
            ForwardNode(ctx, neighbors[i].node, layer - 1, scratch);
        const double* child = scratch.arena_.data() + child_off;
        // Equation (3): primary aggregates neighbors' auxiliaries;
        // Equation (5): auxiliary aggregates neighbors' primaries.
        ops.add_scaled(h_agg, child + d, coeffs[i], d);
        ops.add_scaled(l_agg, child, coeffs[i], d);
      }
    }
    off = scratch.arena_.size();
    scratch.arena_.resize(off + 2 * d);
    const double* self = scratch.arena_.data() + self_off;
    UpdateNode(ops, layer, self, self + d, h_agg, l_agg, cat,
               scratch.arena_.data() + off);
  }
  scratch.memo_.emplace(key, off);
  return off;
}

void BiSage::UpdateNode(const math::kernels::Ops& ops, int layer,
                        const double* self_h, const double* self_l,
                        const double* h_agg, const double* l_agg, double* cat,
                        double* out) const {
  const int d = config_.dimension;
  // Equations (4), (6): y = W [self ; agg].
  std::copy_n(self_h, d, cat);
  std::copy_n(h_agg, d, cat + d);
  ops.matvec(w_h_[layer - 1]->value.ptr(), d, 2 * d, cat, out);
  std::copy_n(self_l, d, cat);
  std::copy_n(l_agg, d, cat + d);
  ops.matvec(w_l_[layer - 1]->value.ptr(), d, 2 * d, cat, out + d);
  if (layer != config_.num_layers) {  // linear top layer (see training)
    ops.relu(out, out, 2 * static_cast<size_t>(d));
  }
  // Equation (7).
  NormalizeInPlace(ops, out, d);
  NormalizeInPlace(ops, out + d, d);
}

void BiSage::MacLayer1(const math::kernels::Ops& ops, const double* h0,
                       const double* l0, double* temp, double* out) const {
  const int d = config_.dimension;
  std::fill_n(temp, 2 * d, 0.0);
  UpdateNode(ops, 1, h0, l0, temp, temp + d, temp + 2 * d, out);
}

void BiSage::BuildLayer1Table(const graph::BipartiteGraph& graph) {
  const int d = config_.dimension;
  const math::kernels::Ops& ops = math::kernels::Active();
  layer1_.slab_of.assign(trained_nodes_, -1);
  int macs = 0;
  for (graph::NodeId node = 0; node < trained_nodes_; ++node) {
    if (graph.type(node) == graph::NodeType::kMac) {
      layer1_.slab_of[node] = macs++;
    }
  }
  layer1_.slabs.assign(static_cast<size_t>(macs) * 2 * d, 0.0);
  math::kernels::AlignedVec temp(4 * d);
  // Const access only: the node tables may borrow a mapped snapshot.
  const math::Matrix& h_table = h_table_;
  const math::Matrix& l_table = l_table_;
  for (graph::NodeId node = 0; node < trained_nodes_; ++node) {
    const int slab = layer1_.slab_of[node];
    if (slab < 0) continue;
    MacLayer1(ops, h_table.RowPtr(node), l_table.RowPtr(node), temp.data(),
              layer1_.slabs.data() + static_cast<size_t>(slab) * 2 * d);
  }
  layer1_.ops = &ops;
}

const double* BiSage::Layer1Slab(graph::NodeId node,
                                 const math::kernels::Ops& ops) const {
  if (&ops != layer1_.ops ||
      node >= static_cast<graph::NodeId>(layer1_.slab_of.size())) {
    return nullptr;
  }
  const int slab = layer1_.slab_of[node];
  if (slab < 0) return nullptr;
  return layer1_.slabs.data() +
         static_cast<size_t>(slab) * 2 * config_.dimension;
}

void BiSage::PrepareInference(const graph::OverlayGraphView& view,
                              NodeTableDelta& tables) const {
  if (tables.base_rows_ < 0) {
    tables.base_rows_ = h_table_.rows();
    tables.h_rows_ = math::Matrix(0, config_.dimension);
    tables.l_rows_ = math::Matrix(0, config_.dimension);
    tables.rng_.RestoreState(init_rng_.SaveState());
  }
  // The overlay contract: once a delta binds, the base tables are
  // frozen (a retrain that grew them would desync the delta's row
  // offsets AND its init-stream continuation).
  GEM_CHECK(h_table_.rows() == tables.base_rows_);
  AppendNodeRows(view, tables.base_rows_, config_.dimension, tables.rng_,
                 tables.h_rows_, tables.l_rows_);
}

void BiSage::EmbedForward(const graph::OverlayGraphView& view,
                          NodeTableDelta& tables, graph::NodeId node,
                          InferScratch& scratch, double* h_out,
                          double* l_out) const {
  GEM_CHECK(config_status_.ok());
  GEM_CHECK(node >= 0 && node < view.num_nodes());
  PrepareInference(view, tables);
  scratch.Reset(config_.num_layers, config_.dimension);
  const OverlayCtx ctx{view, h_table_, l_table_, tables};
  const size_t off = ForwardNode(ctx, node, config_.num_layers, scratch);
  const int d = config_.dimension;
  if (h_out != nullptr) {
    std::copy_n(scratch.arena_.data() + off, d, h_out);
  }
  if (l_out != nullptr) {
    std::copy_n(scratch.arena_.data() + off + d, d, l_out);
  }
}

math::Vec BiSage::PrimaryEmbedding(const graph::OverlayGraphView& view,
                                   NodeTableDelta& tables,
                                   graph::NodeId node) const {
  static thread_local InferScratch scratch;
  math::Vec h(config_.dimension);
  EmbedForward(view, tables, node, scratch, h.data(), nullptr);
  return h;
}

math::Vec BiSage::PrimaryEmbedding(const graph::BipartiteGraph& graph,
                                   graph::NodeId node) const {
  const graph::GraphDelta delta;
  NodeTableDelta tables;
  return PrimaryEmbedding(graph::OverlayGraphView(graph, delta), tables,
                          node);
}

math::Vec BiSage::AuxiliaryEmbedding(const graph::BipartiteGraph& graph,
                                     graph::NodeId node) const {
  static thread_local InferScratch scratch;
  const graph::GraphDelta delta;
  NodeTableDelta tables;
  math::Vec l(config_.dimension);
  EmbedForward(graph::OverlayGraphView(graph, delta), tables, node, scratch,
               nullptr, l.data());
  return l;
}

BiSage::TrainedState BiSage::ExportTrained() const {
  TrainedState state;
  state.h_table = h_table_;
  state.l_table = l_table_;
  state.w_h.reserve(w_h_.size());
  state.w_l.reserve(w_l_.size());
  for (const auto& p : w_h_) state.w_h.push_back(p->value);
  for (const auto& p : w_l_) state.w_l.push_back(p->value);
  state.init_rng = init_rng_.SaveState();
  state.trained_nodes = trained_nodes_;
  state.last_epoch_loss = last_epoch_loss_;
  return state;
}

BiSage::TrainedState BiSage::ExportTrained(const NodeTableDelta& tables) const {
  TrainedState state = ExportTrained();
  // The compacted state must own its bytes: the caller typically
  // unmaps the base's backing right after flushing.
  state.h_table.Materialize();
  state.l_table.Materialize();
  for (math::Matrix& w : state.w_h) w.Materialize();
  for (math::Matrix& w : state.w_l) w.Materialize();
  if (tables.base_rows_ >= 0) {
    GEM_CHECK(tables.base_rows_ == state.h_table.rows());
    for (int r = 0; r < tables.h_rows_.rows(); ++r) {
      state.h_table.AppendRow(tables.h_rows_.Row(r));
      state.l_table.AppendRow(tables.l_rows_.Row(r));
    }
    state.init_rng = tables.rng_.SaveState();
  }
  return state;
}

Status BiSage::RestoreTrained(TrainedState state,
                              const graph::BipartiteGraph& graph) {
  if (!config_status_.ok()) return config_status_;
  const int d = config_.dimension;
  if (state.w_h.size() != w_h_.size() || state.w_l.size() != w_l_.size()) {
    return Status::InvalidArgument("bisage state: layer count mismatch");
  }
  for (const math::Matrix& w : state.w_h) {
    if (w.rows() != d || w.cols() != 2 * d) {
      return Status::InvalidArgument("bisage state: weight shape mismatch");
    }
  }
  for (const math::Matrix& w : state.w_l) {
    if (w.rows() != d || w.cols() != 2 * d) {
      return Status::InvalidArgument("bisage state: weight shape mismatch");
    }
  }
  if (state.h_table.cols() != d || state.l_table.cols() != d ||
      state.h_table.rows() != state.l_table.rows()) {
    return Status::InvalidArgument("bisage state: node table shape mismatch");
  }
  if (state.trained_nodes < 0 ||
      state.trained_nodes > state.h_table.rows()) {
    return Status::InvalidArgument("bisage state: trained_nodes out of range");
  }
  // The layer-1 MAC table is exact only while every record row is zero
  // (EnsureCapacity's rule). A snapshot arrives from outside the
  // process, so check it, including that no row lies past the graph,
  // where a future record could land on it.
  if (state.h_table.rows() > graph.num_nodes()) {
    return Status::InvalidArgument(
        "bisage state: node table extends past the graph");
  }
  // Const access: a mapped load's tables borrow the mapping.
  const math::Matrix& h_table = state.h_table;
  const math::Matrix& l_table = state.l_table;
  for (graph::NodeId node = 0; node < h_table.rows(); ++node) {
    if (graph.type(node) != graph::NodeType::kRecord) continue;
    const double* h = h_table.RowPtr(node);
    const double* l = l_table.RowPtr(node);
    for (int i = 0; i < d; ++i) {
      if (h[i] != 0.0 || l[i] != 0.0) {
        return Status::InvalidArgument("bisage state: record node " +
                                       std::to_string(node) +
                                       " has a non-zero initial row");
      }
    }
  }
  h_table_ = std::move(state.h_table);
  l_table_ = std::move(state.l_table);
  for (size_t k = 0; k < w_h_.size(); ++k) {
    w_h_[k]->value = std::move(state.w_h[k]);
    w_l_[k]->value = std::move(state.w_l[k]);
  }
  init_rng_.RestoreState(state.init_rng);
  trained_nodes_ = state.trained_nodes;
  last_epoch_loss_ = state.last_epoch_loss;
  trained_ = true;
  BuildLayer1Table(graph);
  return Status::Ok();
}

BiSageEmbedder::BiSageEmbedder(BiSageConfig config,
                               graph::EdgeWeightConfig weight_config)
    : graph_(weight_config), model_(std::move(config)) {}

Status BiSageEmbedder::Fit(const std::vector<rf::ScanRecord>& train) {
  // A graph with nodes was built by an earlier Fit or restored; fitting
  // again would append every record a second time.
  if (graph_.num_nodes() > 0) {
    return Status::FailedPrecondition(
        "embedder is already fitted; fit a fresh embedder instead");
  }
  if (train.empty()) {
    return Status::InvalidArgument("no training records");
  }
  train_nodes_.reserve(train.size());
  for (const rf::ScanRecord& record : train) {
    train_nodes_.push_back(graph_.AddRecord(record));
  }
  num_train_ = static_cast<int>(train.size());
  return model_.Train(graph_);
}

math::Vec BiSageEmbedder::TrainEmbedding(int i) const {
  GEM_CHECK(i >= 0 && i < num_train_);
  return model_.PrimaryEmbedding(graph_, train_nodes_[i]);
}

Status BiSageEmbedder::RestoreFitted(graph::BipartiteGraph graph,
                                     std::vector<graph::NodeId> train_nodes,
                                     BiSage::TrainedState model_state) {
  if (train_nodes.empty()) {
    return Status::InvalidArgument("embedder state: no training nodes");
  }
  for (const graph::NodeId node : train_nodes) {
    if (node < 0 || node >= graph.num_nodes() ||
        graph.type(node) != graph::NodeType::kRecord) {
      return Status::InvalidArgument("embedder state: bad training node id");
    }
  }
  const Status status = model_.RestoreTrained(std::move(model_state), graph);
  if (!status.ok()) return status;
  graph_ = std::move(graph);
  num_train_ = static_cast<int>(train_nodes.size());
  train_nodes_ = std::move(train_nodes);
  overlay_ = EmbedderOverlay();
  return Status::Ok();
}

StatusOr<math::Vec> BiSageEmbedder::EmbedNew(const rf::ScanRecord& record) {
  return EmbedNew(record, overlay_);
}

StatusOr<math::Vec> BiSageEmbedder::EmbedNew(const rf::ScanRecord& record,
                                             EmbedderOverlay& overlay) const {
  if (!model_.trained()) {
    return Status::FailedPrecondition("embedder is not trained");
  }
  const graph::OverlayGraphView view = OverlayView(overlay);
  // Paper footnote 3: a record sharing no MAC with base + delta is an
  // outlier outright (and per Section V-A the record is still added,
  // so its MACs become known for later arrivals).
  const bool connected = view.CountKnownMacs(record) > 0;
  const graph::NodeId node = overlay.graph.AddRecord(graph_, record);
  if (!connected) {
    return Status::NotFound("record shares no MAC with the graph");
  }
  return model_.PrimaryEmbedding(view, overlay.tables, node);
}

std::vector<StatusOr<math::Vec>> BiSageEmbedder::EmbedNewBatch(
    const std::vector<rf::ScanRecord>& records,
    EmbedderOverlay& overlay) const {
  std::vector<StatusOr<math::Vec>> out;
  out.reserve(records.size());
  if (!model_.trained()) {
    for (size_t i = 0; i < records.size(); ++i) {
      out.push_back(Status::FailedPrecondition("embedder is not trained"));
    }
    return out;
  }
  const graph::OverlayGraphView view = OverlayView(overlay);
  // Delta appends are serial and ordered (see header): each record's
  // connectivity check sees every earlier record of the batch.
  std::vector<graph::NodeId> nodes(records.size(), -1);
  std::vector<char> connected(records.size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    connected[i] = view.CountKnownMacs(records[i]) > 0 ? 1 : 0;
    nodes[i] = overlay.graph.AddRecord(graph_, records[i]);
  }
  // Grow the delta tables before the read-only parallel section (after
  // this, workers write nothing).
  model_.PrepareInference(view, overlay.tables);
  std::vector<math::Vec> embeddings(records.size());
  // One tape-free forward scratch per worker, reused across the chunk's
  // records — the batch does no per-record allocation beyond the output
  // vectors themselves.
  std::vector<BiSage::InferScratch> scratches(
      model_.thread_pool().num_threads());
  const int dimension = model_.config().dimension;
  model_.thread_pool().ParallelFor(
      static_cast<long>(records.size()),
      [&](int chunk, long begin, long end) {
        GEM_TRACE_SPAN("bisage.embed_chunk");
        BiSage::InferScratch& scratch = scratches[chunk];
        for (long i = begin; i < end; ++i) {
          if (connected[i]) {
            embeddings[i].resize(dimension);
            model_.EmbedForward(view, overlay.tables, nodes[i], scratch,
                                embeddings[i].data());
          }
        }
      });
  for (size_t i = 0; i < records.size(); ++i) {
    if (connected[i]) {
      out.push_back(std::move(embeddings[i]));
    } else {
      out.push_back(Status::NotFound("record shares no MAC with the graph"));
    }
  }
  return out;
}

}  // namespace gem::embed
