// Reproduces Table I: overall comparison of GEM against SignatureHome,
// INOA, and the mixed embedding/detector arms across the ten simulated
// users. Each cell is mean (min, max) over users.
//
// Flags: --csv <dir> dumps per-user rows; --full currently identical
// (Table I is already run at paper scale: all 10 users).

#include <cstdio>
#include <memory>
#include <map>

#include "base/logging.h"
#include "eval/csv.h"
#include "eval/evaluate.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "rf/dataset.h"

namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

}  // namespace

int main(int argc, char** argv) {
  const std::string csv_dir = eval::CsvDirFromArgs(argc, argv);

  std::printf("=== Table I: performance comparison with state-of-the-art "
              "algorithms ===\n");
  std::printf("(10 simulated users; entries are mean (min, max))\n\n");

  std::map<eval::AlgorithmId, std::vector<math::InOutMetrics>> runs;
  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/table1.csv");
    csv->WriteHeader({"algorithm", "user", "p_in", "r_in", "f_in", "p_out",
                      "r_out", "f_out"});
  }

  for (int user = 0; user < 10; ++user) {
    rf::DatasetOptions options;
    options.seed = 100 + static_cast<uint64_t>(user);
    const rf::Dataset data =
        rf::GenerateScenarioDataset(rf::HomePreset(user), options);

    for (const eval::AlgorithmId id : eval::TableOneAlgorithms()) {
      auto system = eval::MakeSystem(id, options.seed);
      auto result = eval::Evaluate(*system, data);
      if (!result.ok()) {
        GEM_LOG(Warning) << eval::AlgorithmName(id) << " failed on user "
                         << user + 1 << ": "
                         << result.status().ToString();
        continue;
      }
      const math::InOutMetrics& m = result.value().metrics;
      runs[id].push_back(m);
      if (csv) {
        csv->WriteRow({eval::AlgorithmName(id), std::to_string(user + 1),
                       eval::FormatValue(m.precision_in),
                       eval::FormatValue(m.recall_in),
                       eval::FormatValue(m.f_in),
                       eval::FormatValue(m.precision_out),
                       eval::FormatValue(m.recall_out),
                       eval::FormatValue(m.f_out)});
      }
    }
    std::fprintf(stderr, "  [table1] user %d/10 done\n", user + 1);
  }

  gem::TextTable table({"Algorithm", "P_in", "R_in", "F_in", "P_out",
                        "R_out", "F_out"});
  for (const eval::AlgorithmId id : eval::TableOneAlgorithms()) {
    if (runs[id].empty()) continue;
    std::vector<std::string> cells{eval::AlgorithmName(id)};
    eval::AppendMetricCells(eval::Aggregate(runs[id]), cells);
    table.AddRow(std::move(cells));
  }
  table.Print();
  return 0;
}
