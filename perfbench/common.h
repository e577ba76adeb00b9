// Shared pieces of the GEM benchmark driver: options, statistics, the
// output digest, span/counter collection, home datasets and the
// stage-by-stage replay used as the output check and as the source of
// the per-layer numbers that have no span.
#ifndef GEM_PERFBENCH_COMMON_H_
#define GEM_PERFBENCH_COMMON_H_

#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/gem.h"
#include "math/metrics.h"
#include "obs/timeline.h"
#include "rf/dataset.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// The ten rf::HomePreset homes; every fence's model is one of them.
constexpr int kHomes = 10;

double Seconds(Clock::duration d);
double Millis(Clock::duration d);
double Micros(Clock::duration d);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Max(const std::vector<double>& values);
/// num / den, 0 when den is 0.
double Ratio(double num, double den);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes: the self-test runs every workload this way.
  bool smoke = false;
  /// Test hook: corrupts one served answer before the output check,
  /// which must then fail the run.
  bool corrupt_digest = false;
  /// Scratch directory for snapshot stores; removed by the caller.
  fs::path work_dir;
};

/// Workload sizes (fixed per build; --smoke picks the small column).
struct Sizes {
  /// hot_fences: copies of each home, and requests per fence (0 = the
  /// home's whole labelled test stream).
  int hot_copies = 3;
  int hot_requests = 0;
  /// fleet_zipf: registered fences, cache capacity and requests per
  /// round; fence popularity is Zipf with exponent 1.
  int fleet_fences = 2000;
  int fleet_capacity = 64;
  int fleet_requests = 1000;
  /// enroll: homes enrolled per cycle.
  int enroll_homes = kHomes;
  /// Set-up repetitions; setup_s is their median. Enrollment set-up
  /// is short, so it is repeated more often.
  int setup_reps = 3;
  int enroll_setup_reps = 5;

  static Sizes For(const Options& options);
};

/// Host facts recorded with every result.
struct Host {
  int cpus = 1;
  /// Engine workers; also the number of devices in flight.
  int workers = 1;
  std::string kernel_backend;

  static Host Detect();
};

/// Small deterministic generator (splitmix64) for workload inputs, so
/// the inputs depend on the seed alone, not on the standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();

 private:
  uint64_t state_;
};

/// FNV-1a over (decision, score bits) of answers in request order.
class Digest {
 public:
  void Add(const gem::core::InferenceResult& result);
  void AddValue(uint64_t value);
  uint64_t value() const { return hash_; }

 private:
  void Mix(uint64_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ULL; }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Same decision and bit-identical score.
bool SameOutput(const gem::core::InferenceResult& a,
                const gem::core::InferenceResult& b);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// (name, unit) of the BENCHMARK.json metrics, in file order.
const std::vector<std::pair<std::string, std::string>>& EndToEndSpec();
const std::vector<std::pair<std::string, std::string>>& PerLayerSpec();

/// What a workload run produced.
struct Outcome {
  /// BENCHMARK.json end_to_end values by name (printed with --trace 0).
  std::map<std::string, double> end_to_end;
  /// BENCHMARK.json per_layer values by name (printed with --trace 1).
  std::map<std::string, double> per_layer;
  /// Every metric under its per-workload name, for the report line.
  MetricList report;
  long attempted = 0;
  long failed = 0;
  /// Digest of every answer of one round (serving) or cycle (enroll).
  uint64_t digest = 0;
  /// Output-check findings, printed before the result.
  std::vector<std::string> notes;
  /// Stage table of the traced run ("" untraced).
  std::string stage_table;
};

/// Counter values read from obs::MetricsRegistry; deltas bracket a
/// timed window.
struct Counters {
  uint64_t rejected = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
  uint64_t flush_failures = 0;
  uint64_t no_common_mac = 0;
  uint64_t pairs = 0;

  static Counters Read();
  Counters operator-(const Counters& before) const;
  Counters& operator+=(const Counters& delta);
};

/// Span durations and self/inclusive totals gathered from timeline
/// snapshots of the traced run.
class SpanLog {
 public:
  /// Durations of every span are kept; self/inclusive totals only for
  /// spans starting inside [window_begin_ns, window_end_ns).
  void Absorb(const std::vector<gem::obs::TimelineEventView>& events,
              int64_t window_begin_ns, int64_t window_end_ns);
  /// Absorbs a snapshot of the live timeline; by default every span
  /// also counts toward the totals.
  void AbsorbLive(int64_t window_begin_ns = INT64_MIN,
                  int64_t window_end_ns = INT64_MAX);

  std::vector<double> DurationsMs(const std::string& name) const;
  double SumMs(const std::string& name) const;
  double InclusiveS(const std::string& name) const;
  double ExclusiveS(const std::string& name) const;
  uint64_t dropped() const { return dropped_; }
  /// Per-stage table of the windowed totals, largest self time first.
  std::string Table() const;

 private:
  struct Totals {
    uint64_t count = 0;
    double inclusive_s = 0.0;
    double exclusive_s = 0.0;
  };
  std::map<std::string, std::vector<double>> durations_ms_;
  std::map<std::string, Totals> totals_;
  uint64_t dropped_ = 0;
};

/// Starts a timeline recording whose per-thread buffers (for threads
/// that first record after this call) hold `events_per_thread` events.
/// Threads keep their buffer for the life of the process, so sizes are
/// chosen per phase.
void StartTimeline(size_t events_per_thread);
/// Sizes the buffers of threads created from now on without recording.
void SizeTimelineBuffers(size_t events_per_thread);

/// The default model configuration with `threads` BiSAGE workers.
gem::core::GemConfig ModelConfig(int threads);

/// Generates the labelled datasets of homes [0, num_homes) for `seed`.
std::vector<gem::rf::Dataset> GenerateHomes(uint64_t seed, int num_homes,
                                            int threads);

/// Trains a model on `data.train` and writes it as a v2 snapshot.
gem::Status TrainAndSave(const gem::rf::Dataset& data, int threads,
                         const std::string& path, double* train_s,
                         double* save_ms);

/// FNV-1a of a file's bytes (0 when unreadable).
uint64_t FileHash(const std::string& path);

/// Per-call timings of the direct replay.
struct StageSamples {
  std::vector<double> infer_us;
  std::vector<double> append_us;
  std::vector<double> forward_us;
  std::vector<double> score_us;
  std::vector<double> update_us;
  std::vector<double> open_ms;
  std::vector<double> flush_ms;
  std::vector<double> new_nodes;
};

/// Replays `records` against a fresh mapping of the snapshot at `path`
/// twice: once through the public stage calls (graph append, BiSAGE
/// forward, detect, update; each timed) and once through Gem::Infer
/// (timed). Both must reproduce `expected`; returns how many records
/// did not (-1 when the snapshot failed to open). Finally times the
/// overlay fold (Gem::Compacted + SaveSnapshotV2 to `scratch`).
long ReplayStages(const std::string& path,
                  const std::vector<gem::rf::ScanRecord>& records,
                  const std::vector<gem::core::InferenceResult>& expected,
                  const std::string& scratch, StageSamples* samples);

/// Single-record reference: Gem::Infer over `records` on a fresh
/// mapping of `path` with an empty overlay.
std::vector<gem::core::InferenceResult> InferLoop(
    const std::string& path, const std::vector<gem::rf::ScanRecord>& records,
    gem::Status* status);

/// F-scores of the paper (inside as positive / outside as positive).
struct FScores {
  gem::math::ConfusionCounts in;
  gem::math::ConfusionCounts out;
  void Add(bool actual_inside, gem::core::Decision decision);
};

/// Private_Dirty of the process in MiB (0 when unavailable).
double PrivateDirtyMb();

/// Per-layer metrics shared by every workload, from the replay samples,
/// the training spans and the set-up timings.
void AddSharedLayerMetrics(const SpanLog& spans, const StageSamples& stages,
                           double trainings, const Counters& train_counters,
                           double generate_s, const std::vector<double>& save_ms,
                           std::map<std::string, double>* out);

/// The workloads (serving.cc, enroll.cc). `zipf` picks fleet_zipf
/// over hot_fences.
Outcome RunServing(const Options& options, bool zipf);
Outcome RunEnroll(const Options& options);

/// Timeline buffer sizes (events per thread) for training threads and
/// for serving threads / the main thread.
constexpr size_t kTrainEvents = 1 << 13;
constexpr size_t kServeEvents = 1 << 16;

}  // namespace perfbench

#endif  // GEM_PERFBENCH_COMMON_H_
