// GEM benchmark driver: scan-to-decision serving on a hot fleet and a
// Zipf fleet, plus fence enrollment. README.md in this directory lists
// the workloads and metrics; run.py builds and runs it.
//
//   gem_perfbench --workload {hot_fences|fleet_zipf|enroll} --seed N
//                 --seconds S --trace {0|1} --work-dir DIR
//                 [--smoke] [--corrupt-digest]
//
// Prints a human-readable report, one `report {...}` line holding every
// metric under its name with its unit, and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when the output check fails, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "obs/timeline.h"

namespace {

using namespace perfbench;  // NOLINT(build/namespaces) bench binary

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--corrupt-digest") {
      options->corrupt_digest = true;
    } else if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    } else if (arg == "--workload") {
      options->workload = value;
      ++i;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
      ++i;
    } else if (arg == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || options->trace;
      ++i;
    } else if (arg == "--work-dir") {
      options->work_dir = value;
      ++i;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->workload != "hot_fences" && options->workload != "fleet_zipf" &&
      options->workload != "enroll") {
    std::fprintf(stderr, "--workload must be hot_fences, fleet_zipf or enroll\n");
    return false;
  }
  if (!have_trace || options->work_dir.empty() || !(options->seconds > 0.0)) {
    std::fprintf(stderr, "--trace {0|1}, --work-dir and --seconds > 0 are "
                         "required\n");
    return false;
  }
  return true;
}

/// JSON number with every digit; non-finite values become 0.
std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricJson(const MetricList& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

MetricList FromSpec(const std::vector<std::pair<std::string, std::string>>& spec,
                    const std::map<std::string, double>& values) {
  MetricList out;
  for (const auto& [name, unit] : spec) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? NAN : it->second, unit});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  const Host host = Host::Detect();

  // Every thread keeps its timeline buffer for the life of the process
  // (even with tracing off), so size them explicitly: minimal untraced,
  // large for the main thread and per phase when traced.
  if (options.trace) {
    SizeTimelineBuffers(kServeEvents);
    gem::obs::Timeline::SetCurrentThreadName("main");
    SizeTimelineBuffers(kTrainEvents);
  } else {
    SizeTimelineBuffers(1);
  }

  Outcome outcome = options.workload == "enroll"
                        ? RunEnroll(options)
                        : RunServing(options, options.workload == "fleet_zipf");
  if (outcome.attempted < 1) {
    outcome.attempted = 1;
    if (outcome.failed == 0) outcome.failed = 1;
  }

  const MetricList end_to_end = FromSpec(EndToEndSpec(), outcome.end_to_end);
  const MetricList per_layer = FromSpec(PerLayerSpec(), outcome.per_layer);
  for (const Metric& metric : options.trace ? per_layer : end_to_end) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "metric %s was not measured\n", metric.name.c_str());
      ++outcome.failed;
    }
  }
  MetricList report = outcome.report;
  report.push_back({"fail_share",
                    static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
                    "ratio"});
  if (options.trace) {
    report.insert(report.end(), per_layer.begin(), per_layer.end());
  }
  const bool correct = outcome.failed == 0;

  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " (smoke)" : "");
  std::printf("host: nproc=%d kernel_backend=%s engine_workers=%d\n",
              host.cpus, host.kernel_backend.c_str(), host.workers);
  for (const Metric& metric : report) {
    std::printf("  %-30s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!outcome.stage_table.empty()) {
    std::printf("traced stages (timed window):\n%s",
                outcome.stage_table.c_str());
  }
  for (const std::string& note : outcome.notes) {
    std::printf("CHECK FAILED: %s\n", note.c_str());
  }
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(outcome.digest));
  std::printf("report {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %d, \"kernel_backend\": \"%s\", \"digest\": "
              "\"%016llx\", \"metrics\": %s}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, host.cpus, host.kernel_backend.c_str(),
              static_cast<unsigned long long>(outcome.digest),
              MetricJson(report).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              MetricJson(options.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
