// Quickstart: train GEM on a few minutes of in-premises RF scans, then
// stream new scans through it for in-out detection.
//
// This example uses the bundled RF simulator as the scan source; in a
// real deployment you would fill rf::ScanRecord from your platform's
// WiFi scan API (each record is just a list of (MAC, RSS) pairs).

#include <cstdio>

#include "core/gem.h"
#include "obs/export.h"
#include "rf/dataset.h"

using namespace gem;  // NOLINT(build/namespaces) example binary

int main() {
  // 1. Get initial in-premises training data: the user walks the
  //    inner perimeter of a ~50 m^2 apartment for ~8 minutes.
  rf::DatasetOptions options;
  options.seed = 7;
  const rf::Dataset data =
      rf::GenerateScenarioDataset(rf::HomePreset(2), options);
  std::printf("training records: %zu (all in-premises)\n",
              data.train.size());

  // 2. Train GEM: bipartite graph -> BiSAGE embeddings -> enhanced
  //    histogram detector. Defaults follow the paper's tuned values.
  core::Gem gem{core::GemConfig{}};
  const Status status = gem.Train(data.train);
  if (!status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("model trained (graph: %d records, %d MACs)\n",
              gem.embedder().graph().num_records(),
              gem.embedder().graph().num_macs());

  // 3. Stream new scans. Each Infer() embeds the record, decides
  //    inside/outside, and self-enhances on highly confident
  //    in-premises samples. The trained model stays read-only: the
  //    stream's graph growth and detector updates land in `overlay`.
  core::GemOverlay overlay;
  int correct = 0;
  int alerts = 0;
  int updates = 0;
  for (const rf::ScanRecord& record : data.test) {
    const core::InferenceResult result = gem.Infer(record, overlay);
    const bool predicted_inside =
        result.decision == core::Decision::kInside;
    correct += predicted_inside == record.inside ? 1 : 0;
    alerts += predicted_inside ? 0 : 1;
    updates += result.model_updated ? 1 : 0;
  }
  std::printf("streamed %zu records: %.1f%% correct, %d alerts, "
              "%d self-enhancement updates\n",
              data.test.size(),
              100.0 * correct / static_cast<double>(data.test.size()),
              alerts, updates);

  // 4. Every stage above was instrumented by gem::obs — dump the
  //    Table-III-style per-stage latency + counter breakdown.
  std::printf("\n== gem::obs metrics ==\n%s",
              obs::Export(obs::MetricsRegistry::Get(),
                          obs::ExportFormat::kTable)
                  .c_str());
  return 0;
}
