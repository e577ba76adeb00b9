// Reproduces Figure 7: GEM with vs without the BiSAGE embeddings. The
// "without" arm feeds the conventional padded matrix representation
// (missing entries = -120 dBm) directly into the same enhanced
// histogram detector.
//
// The workload includes mild AP ON-OFF churn (p = q = 0.15, block 30):
// APs appearing and disappearing across a session is exactly the
// real-world dynamic that makes the padded representation's
// missing-value imputation fail (Section IV-A), and it is why the
// paper observes a large F_out gap for this figure.

#include <cstdio>
#include <map>
#include <memory>

#include "base/logging.h"
#include "eval/csv.h"
#include "eval/evaluate.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "rf/dataset.h"
#include "rf/dynamics.h"

namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

}  // namespace

int main(int argc, char** argv) {
  const std::string csv_dir = eval::CsvDirFromArgs(argc, argv);
  std::printf("=== Figure 7: GEM with vs without BiSAGE embeddings ===\n\n");

  const eval::AlgorithmId arms[] = {eval::AlgorithmId::kGem,
                                    eval::AlgorithmId::kRawOd};
  std::map<eval::AlgorithmId, std::vector<math::InOutMetrics>> runs;
  for (int user = 0; user < 10; ++user) {
    rf::DatasetOptions options;
    options.seed = 100 + static_cast<uint64_t>(user);
    rf::Dataset data =
        rf::GenerateScenarioDataset(rf::HomePreset(user), options);
    math::Rng churn_rng(555 + static_cast<uint64_t>(user));
    rf::ApplyApOnOffDynamics(data.train, 0.15, 0.15, 30, churn_rng);
    rf::ApplyApOnOffDynamics(data.test, 0.15, 0.15, 30, churn_rng);
    for (const eval::AlgorithmId id : arms) {
      auto system = eval::MakeSystem(id, options.seed);
      auto result = eval::Evaluate(*system, data);
      if (!result.ok()) {
        GEM_LOG(Warning) << eval::AlgorithmName(id) << " failed on user "
                         << user + 1;
        continue;
      }
      runs[id].push_back(result.value().metrics);
    }
    std::fprintf(stderr, "  [fig7] user %d/10 done\n", user + 1);
  }

  gem::TextTable table({"Variant", "P_in", "R_in", "F_in", "P_out",
                        "R_out", "F_out"});
  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/fig7.csv");
    csv->WriteHeader({"variant", "f_in_mean", "f_out_mean"});
  }
  double f_in[2] = {0, 0};
  double f_out[2] = {0, 0};
  int idx = 0;
  for (const eval::AlgorithmId id : arms) {
    const eval::AggregateMetrics agg = eval::Aggregate(runs[id]);
    std::vector<std::string> cells{eval::AlgorithmName(id)};
    eval::AppendMetricCells(agg, cells);
    table.AddRow(std::move(cells));
    f_in[idx] = agg.f_in.mean;
    f_out[idx] = agg.f_out.mean;
    if (csv) {
      csv->WriteRow({eval::AlgorithmName(id), eval::FormatValue(f_in[idx]),
                     eval::FormatValue(f_out[idx])});
    }
    ++idx;
  }
  table.Print();
  std::printf(
      "\nImprovement from BiSAGE: %+.0f%% in F_in, %+.0f%% in F_out "
      "(paper: ~14%% and ~54%%).\n",
      (f_in[0] / f_in[1] - 1.0) * 100.0, (f_out[0] / f_out[1] - 1.0) * 100.0);
  return 0;
}
