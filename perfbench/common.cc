#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "math/kernels.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "store/mapped_model.h"
#include "store/meminfo.h"
#include "store/snapshot_v2.h"

namespace perfbench {

using namespace gem;  // NOLINT(build/namespaces) bench binary

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Sizes Sizes::For(const Options& options) {
  Sizes sizes;
  if (options.smoke) {
    sizes.hot_copies = 1;
    sizes.hot_requests = 40;
    sizes.fleet_fences = 100;
    sizes.fleet_capacity = 8;
    sizes.fleet_requests = 300;
    sizes.enroll_homes = 2;
    sizes.setup_reps = 1;
    sizes.enroll_setup_reps = 1;
  }
  return sizes;
}

Host Host::Detect() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.cpus = std::max(1, CPU_COUNT(&set));
  } else {
    host.cpus = std::max(1u, std::thread::hardware_concurrency());
  }
  // The main thread only dispatches and waits, so the engine gets the
  // other cores; the BiSAGE training pool uses all of them.
  host.workers = std::max(1, host.cpus - 1);
  host.kernel_backend =
      math::kernels::BackendName(math::kernels::ActiveBackend());
  return host;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

void Digest::Add(const core::InferenceResult& result) {
  Mix(result.decision == core::Decision::kInside ? 1 : 0);
  uint64_t bits = 0;
  std::memcpy(&bits, &result.score, sizeof(bits));
  AddValue(bits);
}

void Digest::AddValue(uint64_t value) {
  for (int i = 0; i < 8; ++i) Mix((value >> (8 * i)) & 0xff);
}

bool SameOutput(const core::InferenceResult& a,
                const core::InferenceResult& b) {
  return a.decision == b.decision &&
         std::memcmp(&a.score, &b.score, sizeof(a.score)) == 0;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndSpec() {
  static const auto* spec = new std::vector<std::pair<std::string, std::string>>{
      {"setup_s", "s"},          {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},      {"decisions_per_s", "1/s"},
      {"f_in", "ratio"},         {"f_out", "ratio"},
      {"private_dirty_mb", "MiB"},
  };
  return *spec;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSpec() {
  static const auto* spec = new std::vector<std::pair<std::string, std::string>>{
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.lookup_p50_ms", "ms"},
      {"serve.rejected", "count"},
      {"serve.replay_mismatch", "count"},
      {"store.hit_ratio", "ratio"},
      {"store.share", "ratio"},
      {"store.cold_load_p50_ms", "ms"},
      {"store.cold_load_p99_ms", "ms"},
      {"store.evictions", "count"},
      {"store.flushes", "count"},
      {"store.flush_p50_ms", "ms"},
      {"store.save_ms", "ms"},
      {"core.infer_us", "us"},
      {"core.no_common_mac", "count"},
      {"graph.append_us", "us"},
      {"graph.overlay_new_nodes_mean", "count"},
      {"graph.overlay_new_nodes_max", "count"},
      {"embed.forward_us", "us"},
      {"embed.share", "ratio"},
      {"embed.train_s", "s"},
      {"embed.walks_s", "s"},
      {"embed.gradient_s", "s"},
      {"embed.reduce_s", "s"},
      {"embed.pairs", "count"},
      {"embed.batch_ms", "ms"},
      {"detect.score_us", "us"},
      {"detect.update_us", "us"},
      {"detect.absorb_ratio", "ratio"},
      {"detect.fit_ms", "ms"},
      {"base.pool_queue_wait_ms", "ms"},
      {"rf.generate_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return *spec;
}

namespace {

uint64_t CounterValue(const char* name, const obs::Labels& labels = {}) {
  return obs::MetricsRegistry::Get().GetCounter(name, labels).value();
}

}  // namespace

Counters Counters::Read() {
  Counters c;
  c.rejected = CounterValue("gem_serve_requests_total",
                            {{"outcome", "rejected_queue_full"}});
  c.hits = CounterValue("gem_store_cache_hits_total");
  c.misses = CounterValue("gem_store_cache_misses_total");
  c.evictions = CounterValue("gem_store_cache_evictions_total");
  c.flushes = CounterValue("gem_store_overlay_flushes_total");
  c.flush_failures = CounterValue("gem_store_overlay_flush_failures_total");
  c.no_common_mac = CounterValue("gem_no_common_mac_total");
  c.pairs = CounterValue("gem_bisage_pairs_total");
  return c;
}

Counters Counters::operator-(const Counters& before) const {
  Counters d;
  d.rejected = rejected - before.rejected;
  d.hits = hits - before.hits;
  d.misses = misses - before.misses;
  d.evictions = evictions - before.evictions;
  d.flushes = flushes - before.flushes;
  d.flush_failures = flush_failures - before.flush_failures;
  d.no_common_mac = no_common_mac - before.no_common_mac;
  d.pairs = pairs - before.pairs;
  return d;
}

Counters& Counters::operator+=(const Counters& delta) {
  rejected += delta.rejected;
  hits += delta.hits;
  misses += delta.misses;
  evictions += delta.evictions;
  flushes += delta.flushes;
  flush_failures += delta.flush_failures;
  no_common_mac += delta.no_common_mac;
  pairs += delta.pairs;
  return *this;
}

void SpanLog::Absorb(const std::vector<obs::TimelineEventView>& events,
                     int64_t window_begin_ns, int64_t window_end_ns) {
  for (const obs::TimelineEventView& view : events) {
    const obs::TimelineEvent& event = view.event;
    if (event.kind != obs::TimelineEventKind::kSpan &&
        event.kind != obs::TimelineEventKind::kAsyncSpan) {
      continue;
    }
    durations_ms_[event.name].push_back(static_cast<double>(event.dur_ns) /
                                        1e6);
  }
  const obs::AttributionReport report =
      obs::BuildAttribution(events, window_begin_ns, window_end_ns);
  for (const obs::StageCost& cost : report.by_stage) {
    Totals& totals = totals_[cost.stage];
    totals.count += cost.count;
    totals.inclusive_s += cost.inclusive_seconds;
    totals.exclusive_s += cost.exclusive_seconds;
  }
  dropped_ += obs::Timeline::DroppedEvents();
}

void SpanLog::AbsorbLive(int64_t window_begin_ns, int64_t window_end_ns) {
  Absorb(obs::Timeline::Snapshot(), window_begin_ns, window_end_ns);
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  const auto it = durations_ms_.find(name);
  return it == durations_ms_.end() ? std::vector<double>{} : it->second;
}

double SpanLog::SumMs(const std::string& name) const {
  double sum = 0.0;
  for (const double ms : DurationsMs(name)) sum += ms;
  return sum;
}

double SpanLog::InclusiveS(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.inclusive_s;
}

double SpanLog::ExclusiveS(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.exclusive_s;
}

std::string SpanLog::Table() const {
  std::vector<std::pair<std::string, Totals>> rows(totals_.begin(),
                                                   totals_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.exclusive_s > b.second.exclusive_s;
  });
  double self_total = 0.0;
  for (const auto& [name, totals] : rows) {
    // Async spans (queue waits) overlap execution; keep them out of
    // the share denominator.
    if (name.find("queue_wait") == std::string::npos) {
      self_total += totals.exclusive_s;
    }
  }
  std::string out = "stage                          count   incl_s    self_s  self%\n";
  char line[160];
  for (const auto& [name, totals] : rows) {
    std::snprintf(line, sizeof(line), "%-28s %8llu %9.4f %9.4f %5.1f\n",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.inclusive_s, totals.exclusive_s,
                  100.0 * Ratio(totals.exclusive_s, self_total));
    out += line;
  }
  return out;
}

void StartTimeline(size_t events_per_thread) {
  obs::TimelineOptions options;
  options.events_per_thread = events_per_thread;
  obs::Timeline::Enable(options);
}

void SizeTimelineBuffers(size_t events_per_thread) {
  StartTimeline(events_per_thread);
  obs::Timeline::Disable();
}

core::GemConfig ModelConfig(int threads) {
  core::GemConfig config;
  config.bisage.num_threads = threads;
  return config;
}

std::vector<rf::Dataset> GenerateHomes(uint64_t seed, int num_homes,
                                       int threads) {
  std::vector<rf::ScenarioJob> jobs;
  for (int home = 0; home < num_homes; ++home) {
    rf::ScenarioJob job;
    job.scenario = rf::HomePreset(home);
    job.options.seed = seed * 1000 + static_cast<uint64_t>(home) + 1;
    jobs.push_back(job);
  }
  return rf::GenerateScenarioDatasets(jobs, threads);
}

Status TrainAndSave(const rf::Dataset& data, int threads,
                    const std::string& path, double* train_s,
                    double* save_ms) {
  core::Gem gem(ModelConfig(threads));
  const auto start = Clock::now();
  Status status = gem.Train(data.train);
  const auto trained = Clock::now();
  if (!status.ok()) return status;
  status = store::SaveSnapshotV2(path, gem);
  *train_s = Seconds(trained - start);
  *save_ms = Millis(Clock::now() - trained);
  return status;
}

uint64_t FileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  Digest digest;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      digest.AddValue(static_cast<unsigned char>(buffer[i]));
    }
  }
  return digest.value();
}

long ReplayStages(const std::string& path,
                  const std::vector<rf::ScanRecord>& records,
                  const std::vector<core::InferenceResult>& expected,
                  const std::string& scratch, StageSamples* samples) {
  const auto open_start = Clock::now();
  StatusOr<store::MappedModel> mapped = store::MappedModel::Open(path);
  samples->open_ms.push_back(Millis(Clock::now() - open_start));
  if (!mapped.ok()) return -1;
  const core::Gem& gem = mapped->gem();
  const embed::BiSageEmbedder& embedder = gem.embedder();
  core::GemOverlay staged;
  core::GemOverlay whole;
  long mismatches = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const rf::ScanRecord& record = records[i];
    // The stages of Gem::Infer, called one by one through the public
    // API (graph append, BiSAGE forward, detect, self-enhancement).
    core::InferenceResult staged_result;
    const auto t0 = Clock::now();
    const graph::OverlayGraphView view = embedder.OverlayView(staged.embedder);
    const bool connected = view.CountKnownMacs(record) > 0;
    const graph::NodeId node =
        staged.embedder.graph.AddRecord(embedder.graph(), record);
    const auto t1 = Clock::now();
    samples->append_us.push_back(Micros(t1 - t0));
    if (!connected) {
      staged_result.decision = core::Decision::kOutside;
      staged_result.score = 1.0;
    } else {
      const math::Vec embedding =
          embedder.model().PrimaryEmbedding(view, staged.embedder.tables, node);
      const auto t2 = Clock::now();
      samples->forward_us.push_back(Micros(t2 - t1));
      staged_result = gem.Detect(embedding, staged);
      const auto t3 = Clock::now();
      samples->score_us.push_back(Micros(t3 - t2));
      if (gem.config().online_update &&
          staged_result.decision == core::Decision::kInside) {
        const StatusOr<bool> updated = gem.Update(embedding, staged);
        samples->update_us.push_back(Micros(Clock::now() - t3));
        staged_result.model_updated = updated.ok() && *updated;
      }
    }
    const auto t4 = Clock::now();
    const core::InferenceResult whole_result = gem.Infer(record, whole);
    samples->infer_us.push_back(Micros(Clock::now() - t4));
    if (!SameOutput(staged_result, expected[i]) ||
        !SameOutput(whole_result, expected[i])) {
      ++mismatches;
    }
  }
  samples->new_nodes.push_back(staged.embedder.graph.num_new_nodes());
  // The write path of an eviction: fold the overlay, rewrite v2.
  const auto fold_start = Clock::now();
  StatusOr<core::Gem> merged = gem.Compacted(staged);
  const Status saved =
      merged.ok() ? store::SaveSnapshotV2(scratch, *merged) : merged.status();
  samples->flush_ms.push_back(Millis(Clock::now() - fold_start));
  std::error_code ignored;
  fs::remove(scratch, ignored);
  if (!saved.ok()) return -1;
  return mismatches;
}

std::vector<core::InferenceResult> InferLoop(
    const std::string& path, const std::vector<rf::ScanRecord>& records,
    Status* status) {
  std::vector<core::InferenceResult> results;
  StatusOr<store::MappedModel> mapped = store::MappedModel::Open(path);
  if (!mapped.ok()) {
    *status = mapped.status();
    return results;
  }
  core::GemOverlay overlay;
  results.reserve(records.size());
  for (const rf::ScanRecord& record : records) {
    results.push_back(mapped->gem().Infer(record, overlay));
  }
  *status = Status::Ok();
  return results;
}

void FScores::Add(bool actual_inside, core::Decision decision) {
  const bool predicted_inside = decision == core::Decision::kInside;
  in.Add(actual_inside, predicted_inside);
  out.Add(!actual_inside, !predicted_inside);
}

double PrivateDirtyMb() {
  const StatusOr<uint64_t> bytes = store::PrivateDirtyBytes();
  return bytes.ok() ? static_cast<double>(*bytes) / (1024.0 * 1024.0) : 0.0;
}

void AddSharedLayerMetrics(const SpanLog& spans, const StageSamples& stages,
                           double trainings, const Counters& train_counters,
                           double generate_s, const std::vector<double>& save_ms,
                           std::map<std::string, double>* out) {
  std::map<std::string, double>& m = *out;
  m["core.infer_us"] = Median(stages.infer_us);
  m["graph.append_us"] = Median(stages.append_us);
  m["embed.forward_us"] = Median(stages.forward_us);
  m["detect.score_us"] = Median(stages.score_us);
  m["detect.update_us"] = Median(stages.update_us);
  m["graph.overlay_new_nodes_mean"] = Mean(stages.new_nodes);
  m["graph.overlay_new_nodes_max"] = Max(stages.new_nodes);
  // Cold loads: the cache's store.cold_load spans plus the replay's
  // directly timed MappedModel::Open calls.
  std::vector<double> cold = spans.DurationsMs("store.cold_load");
  cold.insert(cold.end(), stages.open_ms.begin(), stages.open_ms.end());
  m["store.cold_load_p50_ms"] = Quantile(cold, 0.50);
  m["store.cold_load_p99_ms"] = Quantile(cold, 0.99);
  m["store.flush_p50_ms"] = Median(stages.flush_ms);
  m["store.save_ms"] = Median(save_ms);
  // Training stages, per trained model. Gradient shards run on every
  // pool thread, so embed.gradient_s is summed over threads.
  m["embed.train_s"] =
      Ratio(spans.SumMs("gem.train.embedder_fit") / 1e3, trainings);
  m["embed.walks_s"] = Ratio(spans.SumMs("bisage.walks") / 1e3, trainings);
  m["embed.gradient_s"] =
      Ratio(spans.SumMs("bisage.gradient") / 1e3, trainings);
  m["embed.reduce_s"] = Ratio(spans.SumMs("bisage.reduce") / 1e3, trainings);
  m["embed.pairs"] = Ratio(static_cast<double>(train_counters.pairs), trainings);
  m["detect.fit_ms"] = Ratio(spans.SumMs("gem.train.detector_fit"), trainings);
  m["base.pool_queue_wait_ms"] =
      Ratio(spans.SumMs("pool.queue_wait"), trainings);
  m["embed.batch_ms"] = Median(spans.DurationsMs("gem.embed_batch"));
  m["rf.generate_s"] = generate_s;
}

}  // namespace perfbench
