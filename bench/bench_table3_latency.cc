// Reproduces Table III: the inference-time breakdown of GEM's three
// online stages — (1) embedding generation via BiSAGE, (2) in-out
// detection by the enhanced histogram detector, (3) online model
// update — using google-benchmark, plus a summary row averaging over
// 2000 runs like the paper.
//
// Serve mode (used by CI's latency smoke step):
//   bench_table3_latency --bench_out=BENCH_serve.json [--requests=N]
//                        [--trace_out=trace.json]
// skips google-benchmark and instead drives the full serving path —
// FenceRegistry lookup, per-fence serialization, Gem::Infer — through
// serve::Engine::InferBlocking, then writes p50/p99/mean request
// latency as JSON. --trace_out (or GEM_PROFILE=<path>) records the
// per-thread timeline to Chrome trace-event JSON and adds a "stages"
// attribution array to the bench JSON.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "core/gem.h"
#include "obs/attribution.h"
#include "obs/resource_sampler.h"
#include "obs/timeline.h"
#include "rf/dataset.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"

namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

/// Shared fixture: one trained GEM, the overlay every stage benchmark
/// runs against, and a pool of unseen test records.
struct LatencySetup {
  LatencySetup() {
    rf::DatasetOptions options;
    options.seed = 4242;
    data = rf::GenerateScenarioDataset(rf::HomePreset(2), options);
    core::GemConfig config;
    gem = std::make_unique<core::Gem>(config);
    const Status status = gem->Train(data.train);
    GEM_CHECK(status.ok());
    // Pre-embed one record per stage benchmark that needs an
    // embedding input.
    for (const rf::ScanRecord& record : data.test) {
      auto embedding = gem->Observe(record, overlay);
      if (embedding.ok()) embeddings.push_back(*embedding);
      if (embeddings.size() >= 256) break;
    }
    GEM_CHECK(!embeddings.empty());
  }

  rf::Dataset data;
  std::unique_ptr<core::Gem> gem;
  core::GemOverlay overlay;
  std::vector<math::Vec> embeddings;
};

LatencySetup& Setup() {
  static LatencySetup* setup = new LatencySetup();
  return *setup;
}

void BM_EmbeddingGeneration(benchmark::State& state) {
  LatencySetup& s = Setup();
  size_t i = 0;
  for (auto _ : state) {
    const rf::ScanRecord& record = s.data.test[i % s.data.test.size()];
    ++i;
    auto embedding = s.gem->Observe(record, s.overlay);
    benchmark::DoNotOptimize(embedding);
  }
}
BENCHMARK(BM_EmbeddingGeneration)->Unit(benchmark::kMillisecond);

void BM_InOutDetection(benchmark::State& state) {
  LatencySetup& s = Setup();
  size_t i = 0;
  for (auto _ : state) {
    const core::InferenceResult result =
        s.gem->Detect(s.embeddings[i % s.embeddings.size()], s.overlay);
    ++i;
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InOutDetection)->Unit(benchmark::kMillisecond);

void BM_ModelUpdate(benchmark::State& state) {
  LatencySetup& s = Setup();
  size_t i = 0;
  for (auto _ : state) {
    const StatusOr<bool> updated =
        s.gem->Update(s.embeddings[i % s.embeddings.size()], s.overlay);
    ++i;
    benchmark::DoNotOptimize(updated);
  }
}
BENCHMARK(BM_ModelUpdate)->Unit(benchmark::kMillisecond);

void BM_FullInference(benchmark::State& state) {
  LatencySetup& s = Setup();
  size_t i = 0;
  for (auto _ : state) {
    const rf::ScanRecord& record = s.data.test[i % s.data.test.size()];
    ++i;
    const core::InferenceResult result = s.gem->Infer(record, s.overlay);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullInference)->Unit(benchmark::kMillisecond);

std::string FlagValueFromArgs(int argc, char** argv, const char* prefix) {
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  }
  return "";
}

double PercentileMs(const std::vector<double>& sorted, double q) {
  const size_t index =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

/// Serves `request_count` single-record queries against one loaded
/// fence via the engine's blocking path and writes the latency
/// distribution to `bench_out` as JSON:
///   {"workload": "serve_latency", "requests": ...,
///    "p50_ms": ..., "p99_ms": ..., "mean_ms": ...}
int RunServeLatency(const std::string& bench_out, int request_count,
                    const std::string& trace_out) {
  LatencySetup setup;
  serve::FenceRegistry registry;
  const auto generation = registry.Install("home", std::move(*setup.gem));
  GEM_CHECK(generation.ok());

  const bool tracing = !trace_out.empty();
  std::unique_ptr<obs::ResourceSampler> sampler;
  if (tracing) {
    obs::Timeline::Enable();
    obs::Timeline::SetCurrentThreadName("main");
    sampler = std::make_unique<obs::ResourceSampler>();
  }

  serve::EngineOptions options;
  serve::Engine engine(&registry, options);

  // Warm up the pool and the fence's inductive caches before timing.
  for (int i = 0; i < 16; ++i) {
    const serve::ServeResponse response = engine.InferBlocking(
        {"home", setup.data.test[i % setup.data.test.size()], {}});
    GEM_CHECK(response.status.ok());
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(request_count);
  for (int i = 0; i < request_count; ++i) {
    const rf::ScanRecord& record =
        setup.data.test[i % setup.data.test.size()];
    const auto start = std::chrono::steady_clock::now();
    const serve::ServeResponse response =
        engine.InferBlocking({"home", record, {}});
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!response.status.ok()) {
      std::fprintf(stderr, "request %d failed: %s\n", i,
                   response.status.ToString().c_str());
      return 1;
    }
    latencies_ms.push_back(ms);
  }
  engine.Shutdown();

  std::string stages_json;
  if (tracing) {
    sampler->Stop();
    obs::Timeline::Disable();
    const obs::AttributionReport report =
        obs::BuildAttribution(obs::Timeline::Snapshot());
    stages_json = obs::AttributionJson(report);
    std::printf("\n=== Stage attribution ===\n\n%s\n",
                obs::AttributionTable(report).c_str());
    const Status written = obs::WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", trace_out.c_str());
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  double sum = 0.0;
  for (const double ms : latencies_ms) sum += ms;
  const double mean = sum / static_cast<double>(latencies_ms.size());
  const double p50 = PercentileMs(latencies_ms, 0.50);
  const double p99 = PercentileMs(latencies_ms, 0.99);

  std::printf("=== Serve latency (engine InferBlocking, 1 fence) ===\n");
  std::printf("requests %d  p50 %.3f ms  p99 %.3f ms  mean %.3f ms\n",
              request_count, p50, p99, mean);

  std::ofstream out(bench_out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
    return 1;
  }
  out << "{\"workload\": \"serve_latency\", \"fence\": \"home\", "
      << "\"threads\": " << options.num_threads
      << ", \"requests\": " << request_count << ", \"p50_ms\": " << p50
      << ", \"p99_ms\": " << p99 << ", \"mean_ms\": " << mean;
  if (!stages_json.empty()) out << ", \"stages\": " << stages_json;
  out << "}\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench_out =
      FlagValueFromArgs(argc, argv, "--bench_out=");
  if (!bench_out.empty()) {
    const std::string requests_flag =
        FlagValueFromArgs(argc, argv, "--requests=");
    int requests = 400;
    if (!requests_flag.empty()) requests = std::atoi(requests_flag.c_str());
    if (requests < 1) {
      std::fprintf(stderr, "--requests must be >= 1\n");
      return 2;
    }
    std::string trace_out = FlagValueFromArgs(argc, argv, "--trace_out=");
    if (trace_out.empty()) trace_out = obs::TraceOutPathFromEnv();
    return RunServeLatency(bench_out, requests, trace_out);
  }

  std::printf("=== Table III: inference time breakdown (ms) ===\n");
  std::printf("Rows: embedding generation / in-out detection / online "
              "model update / full pipeline.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
