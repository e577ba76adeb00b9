// Reproduces Figure 9: (a) F-score vs fraction of the initial training
// data used; (b) F-score improving as the online update consumes
// successive slices of the test stream.
//
// Timing mode (used by CI and the README's threading numbers):
//   bench_fig9_training_update --timing_only [--threads=1,2,4,8]
//                              [--deterministic]
//                              [--bench_out=BENCH_train.json]
//                              [--trace_out=trace.json]
// trains the same workload once per thread count, times Train and the
// batched inference pass, and writes the measurements as JSON.
// --deterministic appends a second pass over the same thread list
// with bisage.deterministic=true; those entries carry
// "deterministic": true in the JSON. The top-level "host_cpus" field
// records std::thread::hardware_concurrency() so the scaling gate in
// bench/check_bench.py knows which thread counts the machine could
// genuinely run in parallel (budgets above host_cpus are warn-only).
// --trace_out (or GEM_PROFILE=<path>) additionally records the
// per-thread timeline, writes it as Chrome trace-event JSON, and
// prints a per-stage cost-attribution table per thread count; the
// per-stage exclusive/inclusive seconds also land in the bench JSON
// under "stages".

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "eval/csv.h"
#include "eval/table.h"
#include "math/metrics.h"
#include "obs/attribution.h"
#include "obs/resource_sampler.h"
#include "obs/timeline.h"
#include "rf/dataset.h"

namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

std::string FlagValueFromArgs(int argc, char** argv, const char* prefix) {
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  }
  return "";
}

std::vector<int> ParseThreadList(const std::string& s) {
  std::vector<int> threads;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) {
      const int t = std::atoi(s.substr(start, end - start).c_str());
      if (t >= 1) threads.push_back(t);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (threads.empty()) threads = {1, 2, 4};
  return threads;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Trains the Figure 9 workload once per thread count and reports the
/// wall time of Train() and of a batched inference pass over the test
/// stream. Returns 0 and writes `bench_out` (when non-empty) as JSON:
///   {"workload": "fig9_train", "train_records": ...,
///    "results": [{"threads": 1, "train_seconds": ..., ...}, ...]}
int RunTimingOnly(const std::vector<int>& thread_counts,
                  bool deterministic_pass, const std::string& bench_out,
                  const std::string& trace_out) {
  rf::DatasetOptions options;
  options.seed = 321;
  const rf::Dataset data =
      rf::GenerateScenarioDataset(rf::HomePreset(2), options);

  const bool tracing = !trace_out.empty();
  std::unique_ptr<obs::ResourceSampler> sampler;
  if (tracing) {
    // Training emits a few spans per batch per thread across several
    // runs; size the rings generously so the capture has no holes.
    obs::TimelineOptions timeline_options;
    timeline_options.events_per_thread = 1 << 17;
    obs::Timeline::Enable(timeline_options);
    obs::Timeline::SetCurrentThreadName("main");
    sampler = std::make_unique<obs::ResourceSampler>();
  }

  struct Timing {
    int threads;
    bool deterministic;
    double train_seconds;
    double infer_batch_seconds;
    /// Timeline window of this run, for per-run attribution.
    int64_t window_begin_ns;
    int64_t window_end_ns;
    std::string stages_json;
  };
  struct RunSpec {
    int threads;
    bool deterministic;
  };
  std::vector<RunSpec> specs;
  for (const int threads : thread_counts) specs.push_back({threads, false});
  if (deterministic_pass) {
    for (const int threads : thread_counts) specs.push_back({threads, true});
  }

  std::vector<Timing> timings;
  eval::TextTable table({"Threads", "Mode", "Train (s)", "InferBatch (s)",
                         "Train speedup"});
  // Speedup is reported against the single-mode baseline: the first
  // default-mode run and the first deterministic run anchor their own
  // columns (deterministic mode is contractually sequential, so mixing
  // the anchors would make its "speedup" read as a regression).
  double baselines[2] = {0.0, 0.0};
  for (const RunSpec& spec : specs) {
    core::GemConfig config;
    config.bisage.num_threads = spec.threads;
    config.bisage.deterministic = spec.deterministic;
    core::Gem gem(config);

    const int64_t window_begin_ns = obs::Timeline::NowNs();
    const auto train_start = std::chrono::steady_clock::now();
    if (!gem.Train(data.train).ok()) {
      std::fprintf(stderr, "training failed at %d threads\n", spec.threads);
      return 1;
    }
    const double train_s = Seconds(train_start);

    const auto infer_start = std::chrono::steady_clock::now();
    core::GemOverlay overlay;
    const std::vector<core::InferenceResult> results =
        gem.InferBatch(data.test, overlay);
    const double infer_s = Seconds(infer_start);
    if (results.size() != data.test.size()) {
      std::fprintf(stderr, "batch size mismatch at %d threads\n",
                   spec.threads);
      return 1;
    }
    const int64_t window_end_ns = obs::Timeline::NowNs();

    double& baseline = baselines[spec.deterministic ? 1 : 0];
    if (baseline == 0.0) baseline = train_s;
    timings.push_back({spec.threads, spec.deterministic, train_s, infer_s,
                       window_begin_ns, window_end_ns, ""});
    table.AddRow({std::to_string(spec.threads),
                  spec.deterministic ? "det" : "default",
                  eval::FormatValue(train_s), eval::FormatValue(infer_s),
                  eval::FormatValue(baseline / train_s)});
    std::fprintf(stderr, "  [timing] %d thread(s)%s: train %.3fs, "
                 "infer-batch %.3fs\n", spec.threads,
                 spec.deterministic ? " [det]" : "", train_s, infer_s);
  }
  std::printf("=== Training / batched-inference timing ===\n\n");
  table.Print();

  if (tracing) {
    sampler->Stop();
    obs::Timeline::Disable();
    const std::vector<obs::TimelineEventView> events =
        obs::Timeline::Snapshot();
    for (Timing& timing : timings) {
      const obs::AttributionReport report = obs::BuildAttribution(
          events, timing.window_begin_ns, timing.window_end_ns);
      timing.stages_json = obs::AttributionJson(report);
      std::printf("\n=== Stage attribution @ %d thread(s)%s ===\n\n%s",
                  timing.threads, timing.deterministic ? " [det]" : "",
                  obs::AttributionTable(report).c_str());
    }
    const Status written = obs::WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%llu events, %llu dropped)\n",
                 trace_out.c_str(),
                 static_cast<unsigned long long>(
                     obs::Timeline::RecordedEvents()),
                 static_cast<unsigned long long>(
                     obs::Timeline::DroppedEvents()));
  }

  if (!bench_out.empty()) {
    std::ofstream out(bench_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
      return 1;
    }
    out << "{\"workload\": \"fig9_train\", \"train_records\": "
        << data.train.size() << ", \"test_records\": " << data.test.size()
        << ", \"host_cpus\": " << std::thread::hardware_concurrency()
        << ", \"results\": [";
    for (size_t i = 0; i < timings.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"threads\": " << timings[i].threads
          << ", \"deterministic\": "
          << (timings[i].deterministic ? "true" : "false")
          << ", \"train_seconds\": " << timings[i].train_seconds
          << ", \"infer_batch_seconds\": " << timings[i].infer_batch_seconds;
      if (!timings[i].stages_json.empty()) {
        out << ", \"stages\": " << timings[i].stages_json;
      }
      out << "}";
    }
    out << "]}\n";
    std::fprintf(stderr, "wrote %s\n", bench_out.c_str());
  }
  return 0;
}

math::InOutMetrics RunGem(const std::vector<rf::ScanRecord>& train,
                          const std::vector<rf::ScanRecord>& test,
                          bool online_update) {
  core::GemConfig config;
  config.online_update = online_update;
  core::Gem gem(config);
  math::InOutMetrics empty;
  if (!gem.Train(train).ok()) return empty;
  core::GemOverlay overlay;
  std::vector<bool> actual, predicted;
  for (const rf::ScanRecord& record : test) {
    actual.push_back(record.inside);
    predicted.push_back(gem.Infer(record, overlay).decision ==
                        core::Decision::kInside);
  }
  return math::ComputeInOutMetrics(actual, predicted);
}

}  // namespace

int main(int argc, char** argv) {
  bool timing_only = false;
  bool deterministic_pass = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timing_only") == 0) timing_only = true;
    if (std::strcmp(argv[i], "--deterministic") == 0) {
      deterministic_pass = true;
    }
  }
  if (timing_only) {
    std::string trace_out = FlagValueFromArgs(argc, argv, "--trace_out=");
    if (trace_out.empty()) trace_out = obs::TraceOutPathFromEnv();
    return RunTimingOnly(
        ParseThreadList(FlagValueFromArgs(argc, argv, "--threads=")),
        deterministic_pass,
        FlagValueFromArgs(argc, argv, "--bench_out="), trace_out);
  }

  const std::string csv_dir = eval::CsvDirFromArgs(argc, argv);
  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/fig9.csv");
    csv->WriteHeader({"panel", "ratio", "f_in", "f_out"});
  }

  rf::DatasetOptions options;
  options.seed = 321;
  const rf::Dataset data =
      rf::GenerateScenarioDataset(rf::HomePreset(2), options);

  std::printf("=== Figure 9(a): performance vs training-data ratio ===\n\n");
  eval::TextTable table_a({"Train ratio", "#records", "F_in", "F_out"});
  for (int tenth = 1; tenth <= 10; ++tenth) {
    const size_t count = data.train.size() * tenth / 10;
    const std::vector<rf::ScanRecord> subset(data.train.begin(),
                                             data.train.begin() + count);
    const math::InOutMetrics m = RunGem(subset, data.test, true);
    table_a.AddRow({eval::FormatValue(tenth / 10.0), std::to_string(count),
                    eval::FormatValue(m.f_in), eval::FormatValue(m.f_out)});
    if (csv) {
      csv->WriteRow({"a", eval::FormatValue(tenth / 10.0),
                     eval::FormatValue(m.f_in), eval::FormatValue(m.f_out)});
    }
    std::fprintf(stderr, "  [fig9a] ratio %d/10 done\n", tenth);
  }
  table_a.Print();
  std::printf("\nExpected shape: usable already at small ratios, improving "
              "with more data.\n\n");

  std::printf("=== Figure 9(b): performance vs update ratio ===\n");
  std::printf("(busy drifting environment; the model updates on the first "
              "k/10 of the test stream, then is evaluated frozen on the "
              "final fifth)\n\n");
  // A long stream in a busy environment: the regime where the online
  // update has to track the drift.
  rf::DatasetOptions stream_options = options;
  stream_options.time_of_day = rf::ProfileAt11Am();
  stream_options.test_segments = 12;
  const rf::Dataset stream_data =
      rf::GenerateScenarioDataset(rf::HomePreset(2), stream_options);
  // Hold out the last 20% of the stream as a fixed probe set.
  const size_t probe_begin = stream_data.test.size() * 8 / 10;
  const std::vector<rf::ScanRecord> probe(
      stream_data.test.begin() + probe_begin, stream_data.test.end());
  eval::TextTable table_b({"Update ratio", "F_in", "F_out"});
  for (int tenth = 0; tenth <= 10; tenth += 2) {
    core::GemConfig config;
    core::Gem gem(config);
    if (!gem.Train(stream_data.train).ok()) break;
    const size_t burn = probe_begin * tenth / 10;
    core::GemOverlay overlay;
    for (size_t i = 0; i < burn; ++i) {
      (void)gem.Infer(stream_data.test[i], overlay);
    }
    // Freeze: evaluate the probe set without further updates.
    std::vector<bool> actual, predicted;
    for (const rf::ScanRecord& record : probe) {
      const auto embedding = gem.Observe(record, overlay);
      bool inside = false;
      if (embedding.ok()) {
        inside = gem.Detect(*embedding, overlay).decision ==
                 core::Decision::kInside;
      }
      actual.push_back(record.inside);
      predicted.push_back(inside);
    }
    const math::InOutMetrics m = math::ComputeInOutMetrics(actual, predicted);
    table_b.AddRow({eval::FormatValue(tenth / 10.0),
                    eval::FormatValue(m.f_in), eval::FormatValue(m.f_out)});
    if (csv) {
      csv->WriteRow({"b", eval::FormatValue(tenth / 10.0),
                     eval::FormatValue(m.f_in), eval::FormatValue(m.f_out)});
    }
    std::fprintf(stderr, "  [fig9b] ratio %d/10 done\n", tenth);
  }
  table_b.Print();
  std::printf("\nExpected shape: F improves (or holds) as more of the "
              "stream has been absorbed.\n");
  return 0;
}
