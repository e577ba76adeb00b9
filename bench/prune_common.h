#ifndef GEM_BENCH_PRUNE_COMMON_H_
#define GEM_BENCH_PRUNE_COMMON_H_

// Shared driver for Figures 10 and 11: F-score as a random subset of
// MACs is removed from the training or testing set.

#include <cstdio>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "base/logging.h"
#include "eval/csv.h"
#include "eval/evaluate.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "rf/dataset.h"
#include "rf/dynamics.h"

namespace gem::bench {

enum class PruneSide { kTrain, kTest };

/// Runs the pruning sweep and prints the figure's series. `repeats`
/// fresh MAC subsets are averaged per level (the paper uses 30; the
/// default here is smaller for runtime, --full restores 30).
inline int RunPruneBench(PruneSide side, const std::string& figure_name,
                         int argc, char** argv) {
  const std::string csv_dir = eval::CsvDirFromArgs(argc, argv);
  const bool full = eval::FullScaleFromArgs(argc, argv);
  const int repeats = full ? 30 : 3;
  const std::vector<int> users = full ? std::vector<int>{0, 2, 5, 9}
                                      : std::vector<int>{2, 9};
  const std::vector<eval::AlgorithmId> algorithms = {
      eval::AlgorithmId::kGem, eval::AlgorithmId::kSignatureHome,
      eval::AlgorithmId::kGraphSageOd};

  std::printf("=== %s: F-score vs %%MACs removed from the %s set ===\n",
              figure_name.c_str(),
              side == PruneSide::kTrain ? "training" : "testing");
  std::printf("(%d repeats x %zu users per point%s)\n\n", repeats,
              users.size(), full ? "" : "; use --full for paper scale");

  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(
        csv_dir + "/" + figure_name + ".csv");
    csv->WriteHeader({"algorithm", "prune_fraction", "f_in", "f_out"});
  }

  gem::TextTable table({"Algorithm", "%removed", "F_in", "F_out"});
  for (const eval::AlgorithmId id : algorithms) {
    for (const double fraction : {0.0, 0.05, 0.10, 0.15, 0.20, 0.25}) {
      math::Vec f_in, f_out;
      for (const int user : users) {
        for (int rep = 0; rep < repeats; ++rep) {
          rf::DatasetOptions options;
          options.seed = 100 + static_cast<uint64_t>(user);
          rf::Dataset data =
              rf::GenerateScenarioDataset(rf::HomePreset(user), options);
          math::Rng prune_rng(7000 + 31 * rep + user);
          if (fraction > 0.0) {
            auto& target =
                side == PruneSide::kTrain ? data.train : data.test;
            const auto macs =
                rf::SampleMacSubset(target, fraction, prune_rng);
            rf::RemoveMacs(target, macs);
          }
          auto system = eval::MakeSystem(id, options.seed + rep);
          auto result = eval::Evaluate(*system, data);
          if (!result.ok()) continue;
          f_in.push_back(result.value().metrics.f_in);
          f_out.push_back(result.value().metrics.f_out);
        }
      }
      if (f_in.empty()) continue;
      table.AddRow({eval::AlgorithmName(id),
                    eval::FormatValue(fraction * 100.0),
                    eval::FormatValue(math::Mean(f_in)),
                    eval::FormatValue(math::Mean(f_out))});
      if (csv) {
        csv->WriteRow({eval::AlgorithmName(id), eval::FormatValue(fraction),
                       eval::FormatValue(math::Mean(f_in)),
                       eval::FormatValue(math::Mean(f_out))});
      }
      std::fprintf(stderr, "  [%s] %s @ %.0f%% done\n", figure_name.c_str(),
                   eval::AlgorithmName(id).c_str(), fraction * 100.0);
    }
  }
  table.Print();
  std::printf("\nExpected shape: GEM degrades slowly and stays above the "
              "baselines across the sweep.\n");
  return 0;
}

}  // namespace gem::bench

#endif  // GEM_BENCH_PRUNE_COMMON_H_
