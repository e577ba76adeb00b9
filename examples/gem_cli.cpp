// gem_cli — command-line geofencing over CSV scan logs.
//
// Usage:
//   gem_cli simulate <out_train.csv> <out_test.csv> [user 0-9] [seed]
//       Generate a simulated home dataset and write it as CSV.
//   gem_cli run <train.csv> <test.csv> [--threads=N]
//       Train GEM on the (in-premises) training records and stream the
//       test records through it, printing one decision per record and
//       summary metrics at the end (when the CSV carries ground truth).
//   gem_cli train <train.csv> --snapshot_out=<model.gem> [--threads=N]
//       Train GEM and persist the fitted model as a v2 snapshot.
//   gem_cli serve [--snapshots=<a.gem,...>] [--store_dir=<dir>]
//           --requests=<records.csv> [--cache_fences=N]
//           [--threads=N] [--queue_depth=N] [--deadline_ms=N]
//           [--failpoints=SPEC]
//       Map each snapshot as a fence (id = file basename without
//       .gem), start the multi-tenant serving engine, and replay the
//       request CSV across the fences round-robin. --snapshots maps
//       and validates each file at start-up (a bad file exits 1) and
//       keeps it resident; --store_dir registers every .gem under the
//       directory instead, so models cold-load on first request and at
//       most --cache_fences (default 64) of them stay resident (LRU).
//       The two can be combined (a --snapshots file wins over a store
//       file of the same id); at least one is required. Every fence's
//       online updates are folded back into its snapshot file when its
//       model is evicted and at exit. --deadline_ms sets the engine's
//       default per-request deadline. --failpoints installs a
//       fault-injection schedule (grammar in src/fault/failpoint.h, e.g.
//       "serve.engine.process=prob=0.01@7/unavailable"); it is an
//       error (exit 2) unless the binary was built with
//       -DGEM_ENABLE_FAILPOINTS=ON. Requests that fail under injection
//       or deadlines are counted and reported, not fatal.
//   gem_cli snapshot inspect <model.gem> [--json]
//       Structural dump of a v2 snapshot: version, section table
//       (tag, name, offset, size), per-section CRC status and
//       alignment. --json emits the same facts as a single machine-
//       readable JSON object on stdout (section offsets/lengths/CRCs,
//       layout health) for tooling that audits mmap-served snapshot
//       fleets. Exits 1 when the layout or any CRC is bad (any other
//       version is a bad layout) — usable as an integrity check in
//       scripts either way.
//   gem_cli matrix [--reps=N] [--threads=N] [--bench_out=PATH]
//       Run the city-scale scenario matrix (multi-floor confusable
//       neighbors, MAC churn storms, drift soaks, device
//       heterogeneity) and print the per-cell AUC/FPR/latency table;
//       --bench_out writes the BENCH_matrix.json artifact CI gates.
//       Exits 1 when any cell misses its accuracy floor.
//
// --threads=N sets the BiSAGE training / batch-embedding worker count
// for run and train, and the engine worker count for serve. It never
// changes the trained model: train writes the same bytes at every N,
// and training puts at most 4 threads to work. The value
// is recorded in the metrics dump as the gem_cli_threads gauge
// (labeled by command), so a --metrics_out file documents how the run
// was parallelized.
//
// Observability flags (any command):
//   --metrics_out=<path>   Write a gem::obs metrics dump after the run
//                          ("-" = stdout).
//   --metrics_format=FMT   prom | json | table (default: table).
//   --trace_out=<path>     Record the per-thread timeline profiler for
//                          the whole run and write Chrome trace-event
//                          JSON (open in Perfetto / chrome://tracing).
//                          GEM_PROFILE=<path> does the same without a
//                          flag.
//
// serve additionally accepts:
//   --metrics_every_ms=N   Rewrite --metrics_out every N ms while the
//                          replay runs, so a long-running serve is
//                          observable before it exits.
// serve also traps SIGINT: the replay stops at the next request and
// the run finishes normally — final metrics dump, trace write, clean
// engine shutdown — instead of dying with half-written output.
//
// Unknown --flags and malformed flag values are errors: usage goes to
// stderr and the exit code is 2.
//
// The CSV format is rf::SaveRecordsCsv's:
//   record_id,timestamp_s,inside,mac,rss_dbm,band
// so real-device scan logs can be converted and replayed.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/gem.h"
#include "eval/matrix.h"
#include "fault/failpoint.h"
#include "math/metrics.h"
#include "obs/export.h"
#include "obs/resource_sampler.h"
#include "obs/timeline.h"
#include "rf/dataset.h"
#include "rf/record_io.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/format.h"
#include "store/snapshot_v2.h"

#include <dirent.h>

using namespace gem;  // NOLINT(build/namespaces) CLI binary

namespace {

constexpr const char* kUsage =
    "gem_cli — geofencing over CSV scan logs\n"
    "  gem_cli simulate <train.csv> <test.csv> [user 0-9] [seed]\n"
    "  gem_cli run <train.csv> <test.csv> [--threads=N]\n"
    "  gem_cli train <train.csv> --snapshot_out=<model.gem> [--threads=N]\n"
    "  gem_cli serve [--snapshots=<a.gem,...>] [--store_dir=<dir>]\n"
    "          --requests=<records.csv>\n"
    "          [--cache_fences=N] [--threads=N] [--queue_depth=N]\n"
    "          [--deadline_ms=N] [--failpoints=SPEC]\n"
    "          [--metrics_every_ms=N]\n"
    "          (online updates are written back to the .gem files)\n"
    "  gem_cli snapshot inspect <model.gem> [--json]\n"
    "  gem_cli matrix [--reps=N] [--threads=N] [--bench_out=PATH]\n"
    "  --threads=N: worker threads (default 1); the trained model is\n"
    "               the same at every N, training uses at most 4\n"
    "  any command: --metrics_out=<path|-> "
    "--metrics_format={prom,json,table}\n"
    "               --trace_out=<path|-> (Chrome trace-event JSON)\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

struct ParsedArgs {
  std::vector<std::string> positional;  // [0] is the subcommand
  // --key=value and bare --key flags, in order.
  std::vector<std::pair<std::string, std::string>> flags;
};

/// Splits argv into positionals and --key[=value] flags. Flag
/// legality is checked per subcommand afterwards.
ParsedArgs SplitArgs(int argc, char** argv) {
  ParsedArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        args.flags.emplace_back(arg.substr(2), "");
      } else {
        args.flags.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

struct MetricsFlags {
  bool requested = false;
  std::string out = "-";
  obs::ExportFormat format = obs::ExportFormat::kTable;
};

/// Common flag table: every subcommand accepts the metrics and trace
/// flags; anything not in `allowed` (nor a common flag) is a usage
/// error.
bool CheckFlags(const ParsedArgs& args,
                const std::vector<std::string>& allowed,
                MetricsFlags* metrics, std::string* trace_out) {
  for (const auto& [key, value] : args.flags) {
    if (key == "trace_out") {
      if (value.empty()) {
        std::fprintf(stderr, "--trace_out needs a path (or -)\n");
        return false;
      }
      *trace_out = value;
      continue;
    }
    if (key == "metrics_out") {
      if (value.empty()) {
        std::fprintf(stderr, "--metrics_out needs a path (or -)\n");
        return false;
      }
      metrics->requested = true;
      metrics->out = value;
      continue;
    }
    if (key == "metrics_format") {
      const auto format = obs::ParseExportFormat(value);
      if (!format.has_value()) {
        std::fprintf(stderr,
                     "unknown --metrics_format '%s' (want prom, json or "
                     "table)\n",
                     value.c_str());
        return false;
      }
      metrics->requested = true;
      metrics->format = *format;
      continue;
    }
    bool ok = false;
    for (const std::string& name : allowed) ok = ok || name == key;
    if (!ok) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

std::string FlagValue(const ParsedArgs& args, const std::string& key,
                      const std::string& fallback = "") {
  for (const auto& [k, v] : args.flags) {
    if (k == key) return v;
  }
  return fallback;
}

/// Strict positive-int flag parse; returns false (with a message) on
/// garbage like --threads=abc or --threads=0.
bool ParsePositiveInt(const std::string& value, const char* flag_name,
                      int* out) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || v < 1 ||
      v > 1 << 20) {
    std::fprintf(stderr, "--%s needs a positive integer, got '%s'\n",
                 flag_name, value.c_str());
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

int DumpMetrics(const MetricsFlags& flags) {
  if (!flags.requested) return 0;
  const Status status = obs::WriteMetrics(flags.out, flags.format);
  if (!status.ok()) {
    std::fprintf(stderr, "metrics dump failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

std::vector<std::string> SplitCsvList(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) parts.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// "out/home_b.gem" -> "home_b": fence ids come from snapshot basenames.
std::string FenceIdFromPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.rfind(".gem");
  if (dot != std::string::npos && dot + 4 == base.size()) {
    base.resize(dot);
  }
  return base.empty() ? path : base;
}

int Simulate(const ParsedArgs& args) {
  if (args.positional.size() < 3) return Usage();
  const int user =
      args.positional.size() > 3 ? std::atoi(args.positional[3].c_str()) : 2;
  const uint64_t seed =
      args.positional.size() > 4
          ? std::strtoull(args.positional[4].c_str(), nullptr, 10)
          : 7;
  if (user < 0 || user > 9) {
    std::fprintf(stderr, "user must be in [0, 9]\n");
    return 2;
  }
  rf::DatasetOptions options;
  options.seed = seed;
  const rf::Dataset data =
      rf::GenerateScenarioDataset(rf::HomePreset(user), options);
  Status status = rf::SaveRecordsCsv(args.positional[1], data.train);
  if (status.ok()) status = rf::SaveRecordsCsv(args.positional[2], data.test);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu training and %zu test records (user %d, seed "
              "%llu)\n",
              data.train.size(), data.test.size(), user,
              static_cast<unsigned long long>(seed));
  return 0;
}

/// Parses an optional --threads flag (default 1). Returns false on a
/// malformed value; the thread count lands in the gem_cli_threads
/// gauge so a --metrics_out dump records the run's parallelism.
bool ParseThreadsFlag(const ParsedArgs& args, const std::string& command,
                      int* threads) {
  *threads = 1;
  const std::string value = FlagValue(args, "threads");
  if (!value.empty() && !ParsePositiveInt(value, "threads", threads)) {
    return false;
  }
  obs::MetricsRegistry::Get()
      .GetGauge("gem_cli_threads", {{"command", command}})
      .Set(static_cast<double>(*threads));
  return true;
}

StatusOr<core::Gem> TrainFromCsv(const std::string& path, int num_threads) {
  auto train = rf::LoadRecordsCsv(path);
  if (!train.ok()) return train.status();
  core::GemConfig config;
  config.bisage.num_threads = num_threads;
  core::Gem gem{config};
  const Status status = gem.Train(train.value());
  if (!status.ok()) return status;
  std::fprintf(stderr, "trained on %zu records (%d MACs)\n",
               train.value().size(), gem.embedder().graph().num_macs());
  return gem;
}

int Matrix(const ParsedArgs& args) {
  eval::MatrixOptions options;
  options.repetitions = 3;
  if (!ParseThreadsFlag(args, "matrix", &options.num_threads)) return 2;
  const std::string reps = FlagValue(args, "reps");
  if (!reps.empty() &&
      !ParsePositiveInt(reps, "reps", &options.repetitions)) {
    return 2;
  }
  const std::string bench_out = FlagValue(args, "bench_out");

  const std::vector<eval::MatrixCell> cells = eval::DefaultMatrix();
  std::printf("scenario matrix: %zu cells x %d reps on %d thread(s)\n",
              cells.size(), options.repetitions, options.num_threads);
  const auto results = eval::RunMatrix(cells, options);
  if (!results.ok()) {
    std::fprintf(stderr, "matrix run failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  std::fputs(eval::FormatMatrixTable(results.value()).c_str(), stdout);
  if (!bench_out.empty()) {
    std::FILE* out = std::fopen(bench_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
      return 1;
    }
    const std::string json =
        eval::MatrixJson(results.value(), options.repetitions);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::fprintf(stderr, "wrote %s\n", bench_out.c_str());
  }
  if (!eval::AllCellsPassed(results.value())) {
    std::fprintf(stderr, "accuracy floor missed — see table above\n");
    return 1;
  }
  return 0;
}

int Run(const ParsedArgs& args) {
  if (args.positional.size() < 3) return Usage();
  int threads = 1;
  if (!ParseThreadsFlag(args, "run", &threads)) return 2;
  auto gem = TrainFromCsv(args.positional[1], threads);
  if (!gem.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 gem.status().ToString().c_str());
    return 1;
  }
  auto test = rf::LoadRecordsCsv(args.positional[2]);
  if (!test.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.positional[2].c_str(),
                 test.status().ToString().c_str());
    return 1;
  }

  core::GemOverlay overlay;
  std::vector<bool> actual, predicted;
  std::printf("timestamp_s,decision,score,updated\n");
  for (const rf::ScanRecord& record : test.value()) {
    const core::InferenceResult result = gem.value().Infer(record, overlay);
    const bool inside = result.decision == core::Decision::kInside;
    std::printf("%.1f,%s,%.4f,%d\n", record.timestamp_s,
                inside ? "inside" : "OUTSIDE", result.score,
                result.model_updated ? 1 : 0);
    actual.push_back(record.inside);
    predicted.push_back(inside);
  }
  const math::InOutMetrics m = math::ComputeInOutMetrics(actual, predicted);
  std::fprintf(stderr,
               "summary (vs CSV ground truth): F_in=%.3f F_out=%.3f "
               "P_in=%.3f R_in=%.3f P_out=%.3f R_out=%.3f\n",
               m.f_in, m.f_out, m.precision_in, m.recall_in,
               m.precision_out, m.recall_out);
  return 0;
}

int Train(const ParsedArgs& args) {
  if (args.positional.size() < 2) return Usage();
  const std::string snapshot_out = FlagValue(args, "snapshot_out");
  if (snapshot_out.empty()) {
    std::fprintf(stderr, "train needs --snapshot_out=<model.gem>\n");
    return 2;
  }
  int threads = 1;
  if (!ParseThreadsFlag(args, "train", &threads)) return 2;
  auto gem = TrainFromCsv(args.positional[1], threads);
  if (!gem.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 gem.status().ToString().c_str());
    return 1;
  }
  const Status saved = store::SaveSnapshotV2(snapshot_out, gem.value());
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("snapshot written to %s\n", snapshot_out.c_str());
  return 0;
}

/// Minimal JSON string escaping: snapshot paths and section names are
/// ASCII in practice, but a path with a quote or backslash must not
/// produce broken output.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int SnapshotInspect(const std::string& path, bool json) {
  const StatusOr<store::SnapshotInfo> info = store::InspectSnapshot(path);
  if (!info.ok()) {
    std::fprintf(stderr, "cannot inspect %s: %s\n", path.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  if (json) {
    bool healthy = info->layout_ok;
    std::printf("{\"path\": \"%s\", \"version\": %u, \"file_size\": %llu, "
                "\"layout_ok\": %s, \"layout_error\": \"%s\", "
                "\"sections\": [",
                JsonEscape(path).c_str(), info->version,
                static_cast<unsigned long long>(info->file_size),
                info->layout_ok ? "true" : "false",
                JsonEscape(info->layout_error).c_str());
    for (size_t i = 0; i < info->sections.size(); ++i) {
      const store::SectionInfo& section = info->sections[i];
      if (!section.crc_ok) healthy = false;
      std::printf("%s{\"tag\": %u, \"name\": \"%s\", \"offset\": %llu, "
                  "\"length\": %llu, \"stored_crc\": %u, \"crc_ok\": %s, "
                  "\"aligned\": %s}",
                  i == 0 ? "" : ", ", section.tag,
                  JsonEscape(section.name).c_str(),
                  static_cast<unsigned long long>(section.offset),
                  static_cast<unsigned long long>(section.length),
                  section.stored_crc, section.crc_ok ? "true" : "false",
                  section.aligned ? "true" : "false");
    }
    std::printf("], \"healthy\": %s}\n", healthy ? "true" : "false");
    return healthy ? 0 : 1;
  }
  std::printf("%s: snapshot format v%u, %llu bytes, %zu sections\n",
              path.c_str(), info->version,
              static_cast<unsigned long long>(info->file_size),
              info->sections.size());
  bool healthy = info->layout_ok;
  if (info->layout_ok) {
    std::printf("layout: OK\n");
  } else {
    std::printf("layout: BAD (%s)\n", info->layout_error.c_str());
  }
  std::printf("  %3s  %-14s  %10s  %10s  %-10s  %s\n", "tag", "name",
              "offset", "bytes", "crc32", "status");
  for (const store::SectionInfo& section : info->sections) {
    std::string status = section.crc_ok ? "OK" : "CRC MISMATCH";
    if (!section.aligned) status += " MISALIGNED";
    if (!section.crc_ok) healthy = false;
    std::printf("  %3u  %-14s  %10llu  %10llu  0x%08x  %s\n", section.tag,
                section.name.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.length),
                section.stored_crc, status.c_str());
  }
  return healthy ? 0 : 1;
}

int Snapshot(const ParsedArgs& args) {
  if (args.positional.size() < 2) return Usage();
  const std::string& verb = args.positional[1];
  if (verb == "inspect") {
    if (args.positional.size() != 3) return Usage();
    bool json = false;
    for (const auto& [key, value] : args.flags) {
      if (key == "json" && value.empty()) json = true;
    }
    return SnapshotInspect(args.positional[2], json);
  }
  return Usage();
}

/// Lists <dir>/*.gem (non-recursive), sorted for a stable fence order.
std::vector<std::string> ListSnapshotFiles(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return paths;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.rfind(".gem") == name.size() - 4) {
      paths.push_back(dir + "/" + name);
    }
  }
  ::closedir(handle);
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// SIGINT request: the handler only sets the flag; the serve replay
/// loop polls it and winds down normally (final metrics dump, trace
/// write, engine drain) instead of dying mid-output.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

/// Rewrites the metrics dump every `period_ms` on a background thread
/// until stopped, so a long-running serve is observable while it runs
/// (the file always holds the latest dump).
class PeriodicMetricsFlusher {
 public:
  PeriodicMetricsFlusher(const MetricsFlags& flags, int period_ms)
      : flags_(flags), period_ms_(period_ms), thread_([this] { Loop(); }) {}
  ~PeriodicMetricsFlusher() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                         [this] { return stopping_; })) {
      lock.unlock();
      const Status status = obs::WriteMetrics(flags_.out, flags_.format);
      if (!status.ok()) {
        std::fprintf(stderr, "periodic metrics flush failed: %s\n",
                     status.ToString().c_str());
      }
      lock.lock();
    }
  }

  const MetricsFlags flags_;
  const int period_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mutex_
  std::thread thread_;
};

int Serve(const ParsedArgs& args, const MetricsFlags& metrics) {
  const std::vector<std::string> snapshot_paths =
      SplitCsvList(FlagValue(args, "snapshots"));
  const std::string store_dir = FlagValue(args, "store_dir");
  const std::string requests_path = FlagValue(args, "requests");
  if ((snapshot_paths.empty() && store_dir.empty()) ||
      requests_path.empty()) {
    std::fprintf(stderr,
                 "serve needs --snapshots=<a.gem,...> and/or "
                 "--store_dir=<dir>, plus --requests=<records.csv>\n");
    return 2;
  }
  int cache_fences = 64;
  const std::string cache_s = FlagValue(args, "cache_fences");
  if (!cache_s.empty() &&
      !ParsePositiveInt(cache_s, "cache_fences", &cache_fences)) {
    return 2;
  }
  int metrics_every_ms = 0;
  const std::string every_s = FlagValue(args, "metrics_every_ms");
  if (!every_s.empty()) {
    if (!ParsePositiveInt(every_s, "metrics_every_ms", &metrics_every_ms)) {
      return 2;
    }
    if (!metrics.requested) {
      std::fprintf(stderr,
                   "--metrics_every_ms needs --metrics_out to flush to\n");
      return 2;
    }
  }
  serve::EngineOptions options;
  const std::string threads_s = FlagValue(args, "threads");
  if (!threads_s.empty() &&
      !ParsePositiveInt(threads_s, "threads", &options.num_threads)) {
    return 2;
  }
  obs::MetricsRegistry::Get()
      .GetGauge("gem_cli_threads", {{"command", "serve"}})
      .Set(static_cast<double>(options.num_threads));
  const std::string depth_s = FlagValue(args, "queue_depth");
  if (!depth_s.empty()) {
    int depth = 0;
    if (!ParsePositiveInt(depth_s, "queue_depth", &depth)) return 2;
    options.max_queue_depth = static_cast<size_t>(depth);
  }
  const std::string deadline_s = FlagValue(args, "deadline_ms");
  if (!deadline_s.empty()) {
    int deadline_ms = 0;
    if (!ParsePositiveInt(deadline_s, "deadline_ms", &deadline_ms)) return 2;
    options.default_deadline = std::chrono::milliseconds(deadline_ms);
  }
  const std::string failpoints = FlagValue(args, "failpoints");
  if (!failpoints.empty()) {
    if (!fault::CompiledIn()) {
      std::fprintf(stderr,
                   "--failpoints requires a build with "
                   "-DGEM_ENABLE_FAILPOINTS=ON (this binary compiled "
                   "them out)\n");
      return 2;
    }
    const Status configured = fault::Configure(failpoints);
    if (!configured.ok()) {
      std::fprintf(stderr, "bad --failpoints spec: %s\n",
                   configured.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "failpoints armed: %s\n", failpoints.c_str());
  }

  // One cache owns every fence, sized so that no --snapshots model is
  // ever evicted; --store_dir models cold-load into the rest.
  store::FenceCacheOptions cache_options;
  cache_options.capacity =
      snapshot_paths.size() + static_cast<size_t>(cache_fences);
  auto cache = std::make_shared<store::FenceCache>(cache_options);
  if (!store_dir.empty()) {
    const std::vector<std::string> store_paths = ListSnapshotFiles(store_dir);
    if (store_paths.empty()) {
      std::fprintf(stderr, "no .gem snapshots under %s\n", store_dir.c_str());
      return 1;
    }
    for (const std::string& path : store_paths) {
      const Status registered = cache->Register(FenceIdFromPath(path), path);
      if (!registered.ok()) {
        std::fprintf(stderr, "cannot register %s: %s\n", path.c_str(),
                     registered.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr,
                 "store attached: %zu snapshots under %s, at most %d "
                 "resident (LRU)\n",
                 store_paths.size(), store_dir.c_str(), cache_fences);
  }
  // Installed after the store is registered, so a --snapshots file
  // takes over a store file of the same fence id.
  for (const std::string& path : snapshot_paths) {
    const std::string fence_id = FenceIdFromPath(path);
    auto generation = cache->Install(fence_id, path);
    if (!generation.ok()) {
      std::fprintf(stderr, "cannot load snapshot %s: %s\n", path.c_str(),
                   generation.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded fence '%s' (generation %llu) from %s\n",
                 fence_id.c_str(),
                 static_cast<unsigned long long>(generation.value()),
                 path.c_str());
  }
  serve::FenceRegistry registry;
  registry.AttachStore(cache);

  auto requests = rf::LoadRecordsCsv(requests_path);
  if (!requests.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", requests_path.c_str(),
                 requests.status().ToString().c_str());
    return 1;
  }

  // Replay round-robins across every registered fence.
  const std::vector<std::string> fence_ids = cache->RegisteredIds();
  serve::Engine engine(&registry, options);
  std::unique_ptr<PeriodicMetricsFlusher> flusher;
  if (metrics_every_ms > 0) {
    flusher = std::make_unique<PeriodicMetricsFlusher>(metrics,
                                                       metrics_every_ms);
  }
  std::signal(SIGINT, HandleSigint);
  std::printf("fence_id,timestamp_s,decision,score,generation\n");
  size_t shed = 0;
  size_t failed = 0;
  size_t replayed = 0;
  for (size_t i = 0; i < requests.value().size(); ++i) {
    if (g_interrupted) {
      std::fprintf(stderr,
                   "SIGINT: stopping replay after %zu requests, "
                   "draining engine\n",
                   replayed);
      break;
    }
    ++replayed;
    serve::ServeRequest request;
    request.fence_id = fence_ids[i % fence_ids.size()];
    request.record = requests.value()[i];
    serve::ServeResponse response = engine.InferBlocking(request);
    // The bounded queue sheds under overload; a driver replaying a file
    // just retries after a beat. Admission-failpoint injections also
    // surface as kUnavailable, so cap the retries.
    for (int attempt = 0; response.status.code() == StatusCode::kUnavailable &&
                          attempt < 100 && !g_interrupted;
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++shed;
      response = engine.InferBlocking(request);
    }
    if (!response.status.ok()) {
      // Deadline misses and injected faults are per-request outcomes,
      // not driver errors: count them and keep replaying.
      std::fprintf(stderr, "request %zu failed: %s\n", i,
                   response.status.ToString().c_str());
      ++failed;
      continue;
    }
    std::printf("%s,%.1f,%s,%.4f,%llu\n", request.fence_id.c_str(),
                request.record.timestamp_s,
                response.result.decision == core::Decision::kInside
                    ? "inside"
                    : "OUTSIDE",
                response.result.score,
                static_cast<unsigned long long>(response.fence_generation));
  }
  engine.Shutdown();
  flusher.reset();  // last periodic dump wins over the final one below
  std::signal(SIGINT, SIG_DFL);
  std::fprintf(stderr, "served %zu requests across %zu fences (%zu "
               "retried after backpressure, %zu failed)\n",
               replayed - failed, fence_ids.size(), shed, failed);
  // Every request failing means the setup is wrong, not the requests.
  return failed == replayed && failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ParsedArgs args = SplitArgs(argc, argv);
  if (args.positional.empty()) return Usage();
  const std::string& command = args.positional[0];

  std::vector<std::string> allowed;
  if (command == "run") {
    allowed = {"threads"};
  } else if (command == "train") {
    allowed = {"snapshot_out", "threads"};
  } else if (command == "serve") {
    allowed = {"snapshots", "store_dir", "cache_fences", "requests",
               "threads", "queue_depth", "deadline_ms", "failpoints",
               "metrics_every_ms"};
  } else if (command == "snapshot") {
    allowed = {"json"};
  } else if (command == "matrix") {
    allowed = {"reps", "threads", "bench_out"};
  } else if (command != "simulate" && command != "run") {
    return Usage();
  }
  MetricsFlags metrics;
  std::string trace_out;
  if (!CheckFlags(args, allowed, &metrics, &trace_out)) return Usage();
  if (trace_out.empty()) trace_out = obs::TraceOutPathFromEnv();

  std::unique_ptr<obs::ResourceSampler> sampler;
  if (!trace_out.empty()) {
    obs::Timeline::Enable();
    obs::Timeline::SetCurrentThreadName("main");
    sampler = std::make_unique<obs::ResourceSampler>();
  }

  int code;
  if (command == "simulate") {
    code = Simulate(args);
  } else if (command == "run") {
    code = Run(args);
  } else if (command == "train") {
    code = Train(args);
  } else if (command == "snapshot") {
    code = Snapshot(args);
  } else if (command == "matrix") {
    code = Matrix(args);
  } else {
    code = Serve(args, metrics);
  }

  if (!trace_out.empty()) {
    sampler->Stop();
    obs::Timeline::Disable();
    const Status written = obs::WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   written.ToString().c_str());
      if (code == 0) code = 1;
    } else {
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
  }
  const int metrics_code = DumpMetrics(metrics);
  return code != 0 ? code : metrics_code;
}
