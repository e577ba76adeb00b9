// Reproduces Table II: per-user GEM performance together with the MAC
// count and area of each simulated home.

#include <cstdio>
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
  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/table2.csv");
    csv->WriteHeader({"user", "p_in", "r_in", "f_in", "p_out", "r_out",
                      "f_out", "macs", "area_m2"});
  }

  std::printf("=== Table II: user-level performance of GEM ===\n\n");
  gem::TextTable table({"User", "P_in", "R_in", "F_in", "P_out", "R_out",
                        "F_out", "#MACs", "Area(m^2)"});

  std::vector<math::InOutMetrics> all;
  math::Vec macs_seen;
  math::Vec areas;
  for (int user = 0; user < 10; ++user) {
    const rf::ScenarioConfig scenario = rf::HomePreset(user);
    rf::DatasetOptions options;
    options.seed = 100 + static_cast<uint64_t>(user);
    const rf::Dataset data = rf::GenerateScenarioDataset(scenario, options);

    // #MACs: distinct non-transient MACs actually observed.
    int macs = 0;
    for (const std::string& mac : rf::CollectMacs(data.train)) {
      if (mac.rfind("transient:", 0) != 0) ++macs;
    }
    const double area = scenario.width_m * scenario.height_m *
                        scenario.floors;

    auto system = eval::MakeSystem(eval::AlgorithmId::kGem, options.seed);
    auto result = eval::Evaluate(*system, data);
    if (!result.ok()) {
      GEM_LOG(Warning) << "user " << user + 1
                       << " failed: " << result.status().ToString();
      continue;
    }
    const math::InOutMetrics& m = result.value().metrics;
    all.push_back(m);
    macs_seen.push_back(macs);
    areas.push_back(area);

    table.AddRow({std::to_string(user + 1), eval::FormatValue(m.precision_in),
                  eval::FormatValue(m.recall_in), eval::FormatValue(m.f_in),
                  eval::FormatValue(m.precision_out),
                  eval::FormatValue(m.recall_out),
                  eval::FormatValue(m.f_out), std::to_string(macs),
                  eval::FormatValue(area)});
    if (csv) {
      csv->WriteNumericRow({static_cast<double>(user + 1), m.precision_in,
                            m.recall_in, m.f_in, m.precision_out,
                            m.recall_out, m.f_out,
                            static_cast<double>(macs), area});
    }
    std::fprintf(stderr, "  [table2] user %d/10 done\n", user + 1);
  }

  if (!all.empty()) {
    const eval::AggregateMetrics agg = eval::Aggregate(all);
    table.AddRow({"Avg.", eval::FormatValue(agg.p_in.mean),
                  eval::FormatValue(agg.r_in.mean),
                  eval::FormatValue(agg.f_in.mean),
                  eval::FormatValue(agg.p_out.mean),
                  eval::FormatValue(agg.r_out.mean),
                  eval::FormatValue(agg.f_out.mean),
                  eval::FormatValue(math::Mean(macs_seen)),
                  eval::FormatValue(math::Mean(areas))});
  }
  table.Print();
  return 0;
}
