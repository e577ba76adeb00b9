// Reproduces Figure 13: GEM's average F-score under the AP ON-OFF
// two-state Markov dynamics of Figure 12, over a (p, q) grid. Each
// MAC transitions every 30 samples throughout the training and testing
// sets.

#include <cstdio>
#include <memory>

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
  const bool full = eval::FullScaleFromArgs(argc, argv);
  const int repeats = full ? 30 : 2;
  const std::vector<double> grid =
      full ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9}
           : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};

  std::printf("=== Figure 13: robustness to AP ON-OFF Markov dynamics ===\n");
  std::printf("(mean of F_in and F_out, %d repeats per cell%s)\n\n", repeats,
              full ? "" : "; --full for the paper's 9x9 grid, 30 repeats");

  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/fig13.csv");
    csv->WriteHeader({"p", "q", "mean_f"});
  }

  std::vector<std::string> headers{"p \\ q"};
  for (double q : grid) headers.push_back(eval::FormatValue(q));
  gem::TextTable table(headers);

  for (double p : grid) {
    std::vector<std::string> row{eval::FormatValue(p)};
    for (double q : grid) {
      math::Vec f;
      for (int rep = 0; rep < repeats; ++rep) {
        rf::DatasetOptions options;
        options.seed = 102;
        rf::Dataset data =
            rf::GenerateScenarioDataset(rf::HomePreset(2), options);
        math::Rng markov_rng(5000 + 97 * rep);
        rf::ApplyApOnOffDynamics(data.train, p, q, 30, markov_rng);
        rf::ApplyApOnOffDynamics(data.test, p, q, 30, markov_rng);
        auto system = eval::MakeSystem(eval::AlgorithmId::kGem,
                                       options.seed + rep);
        auto result = eval::Evaluate(*system, data);
        if (!result.ok()) continue;
        f.push_back((result.value().metrics.f_in +
                     result.value().metrics.f_out) / 2.0);
      }
      const double mean_f = f.empty() ? 0.0 : math::Mean(f);
      row.push_back(eval::FormatValue(mean_f));
      if (csv) csv->WriteNumericRow({p, q, mean_f});
    }
    table.AddRow(std::move(row));
    std::fprintf(stderr, "  [fig13] p=%.1f row done\n", p);
  }
  table.Print();
  std::printf("\nExpected shape: high F everywhere, with a small dip near "
              "(p, q) = (0.5, 0.5) where the chain's entropy rate peaks.\n");
  return 0;
}
