// Ablation study of GEM's design choices (beyond the paper's figures;
// DESIGN.md's per-design-choice index). Each arm removes exactly one
// ingredient:
//   1. full GEM                      (reference)
//   2. - weighted sampling           (uniform sampling/aggregation/walks,
//                                     bi-level aggregation kept)
//   3. - bi-level aggregation        (GraphSAGE: homogeneous, single
//                                     embedding, uniform sampling)
//   4. - enhanced detector           (plain HBOS with the contamination
//                                     threshold)
//   5. - online self-enhancement     (no model updates on the stream)
//   6. - BiSAGE entirely             (padded matrix representation)

#include <cstdio>
#include <memory>

#include "core/embedding_pipeline.h"
#include "detect/hbos.h"
#include "embed/bisage.h"
#include "embed/matrix_rep.h"
#include "eval/csv.h"
#include "eval/evaluate.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "rf/dataset.h"
#include "rf/dynamics.h"

namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

std::unique_ptr<core::GeofencingSystem> MakeArm(int arm, uint64_t seed) {
  switch (arm) {
    case 0:
      return eval::MakeSystem(eval::AlgorithmId::kGem, seed);
    case 1: {
      core::GemConfig config;
      config.bisage.use_edge_weights = false;
      return eval::MakeSystem(eval::AlgorithmId::kGem, seed, config);
    }
    case 2:
      return eval::MakeSystem(eval::AlgorithmId::kGraphSageOd, seed);
    case 3: {
      embed::BiSageConfig bisage;
      bisage.seed ^= seed;
      return std::make_unique<core::EmbeddingPipeline>(
          "plain HBOS", std::make_unique<embed::BiSageEmbedder>(bisage),
          std::make_unique<detect::HbosDetector>());
    }
    case 4: {
      core::GemConfig config;
      config.online_update = false;
      return eval::MakeSystem(eval::AlgorithmId::kGem, seed, config);
    }
    case 5:
      return eval::MakeSystem(eval::AlgorithmId::kRawOd, seed);
  }
  return nullptr;
}

const char* ArmName(int arm) {
  switch (arm) {
    case 0: return "GEM (full)";
    case 1: return "  - weighted sampling";
    case 2: return "  - bi-level aggregation (GraphSAGE)";
    case 3: return "  - enhanced detector (plain HBOS)";
    case 4: return "  - online self-enhancement";
    case 5: return "  - BiSAGE (padded matrix)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string csv_dir = eval::CsvDirFromArgs(argc, argv);
  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/ablation.csv");
    csv->WriteHeader({"arm", "f_in", "f_out"});
  }

  std::printf("=== Ablation: what each GEM ingredient buys ===\n");
  std::printf("(mean over 4 homes with mild AP churn)\n\n");

  gem::TextTable table({"Arm", "F_in", "F_out"});
  for (int arm = 0; arm < 6; ++arm) {
    math::Vec f_in, f_out;
    for (int user : {0, 2, 5, 9}) {
      rf::DatasetOptions options;
      options.seed = 100 + static_cast<uint64_t>(user);
      rf::Dataset data =
          rf::GenerateScenarioDataset(rf::HomePreset(user), options);
      // Mild AP churn: the dynamic regime GEM is designed for (and the
      // one where representation choices actually separate).
      math::Rng churn(777 + static_cast<uint64_t>(user));
      rf::ApplyApOnOffDynamics(data.train, 0.1, 0.1, 30, churn);
      rf::ApplyApOnOffDynamics(data.test, 0.1, 0.1, 30, churn);
      auto system = MakeArm(arm, options.seed);
      auto result = eval::Evaluate(*system, data);
      if (!result.ok()) continue;
      f_in.push_back(result.value().metrics.f_in);
      f_out.push_back(result.value().metrics.f_out);
    }
    if (f_in.empty()) continue;
    table.AddRow({ArmName(arm), eval::FormatValue(math::Mean(f_in)),
                  eval::FormatValue(math::Mean(f_out))});
    if (csv) {
      csv->WriteRow({ArmName(arm), eval::FormatValue(math::Mean(f_in)),
                     eval::FormatValue(math::Mean(f_out))});
    }
    std::fprintf(stderr, "  [ablation] arm %d done\n", arm);
  }
  table.Print();
  std::printf("\nExpected shape: the full system leads; each removal "
              "costs accuracy, with the bipartite/BiSAGE modeling and "
              "the enhanced detector mattering most.\n");
  return 0;
}
