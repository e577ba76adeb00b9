// Golden drift-soak regression: a committed scenario whose world RSS
// walks away monotonically (6 dB/h secular drift) is streamed through
// the same trained model twice — once frozen, once with label-free
// self-enhancement (Section V-B) absorbing confident normals — and
// both score streams are pinned bit-exactly (hex floats, per kernel
// backend). On top of the bits, the test asserts the *direction* of
// the mechanism: the updating pass must (a) actually absorb records
// and (b) rank inside/outside at least as well as the frozen model,
// i.e. label-free Update tracks the drift instead of fighting it. A
// second case repeats the direction check over twelve BiSAGE seeds.
// Regenerate fixtures after an intentional numerics change:
//
//   GEM_REGEN_GOLDEN=1 GEM_KERNELS=scalar ./drift_golden_test
//   GEM_REGEN_GOLDEN=1 GEM_KERNELS=avx2   ./drift_golden_test
//
// which rewrites tests/data/golden/drift_* in the source tree.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "math/kernels.h"
#include "math/metrics.h"
#include "rf/dataset.h"
#include "rf/record_io.h"

#ifndef GEM_TEST_DATA_DIR
#error "drift_golden_test needs GEM_TEST_DATA_DIR (set in CMakeLists)"
#endif

namespace gem::core {
namespace {

std::string GoldenDir() {
  return std::string(GEM_TEST_DATA_DIR) + "/golden";
}

/// Same shape as golden_scores_test, so one fixture serves any
/// machine and thread count per kernel backend. GEM_THREADS sets the
/// pool size, as it does there.
GemConfig DriftConfig(bool online_update, uint64_t seed = 5) {
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  config.bisage.seed = seed;
  config.bisage.num_threads = 1;
  if (const char* env = std::getenv("GEM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) config.bisage.num_threads = parsed;
  }
  config.online_update = online_update;
  return config;
}

/// The soak stream through a frozen model and an updating one, both
/// trained at `seed`.
struct SoakRun {
  math::Vec frozen_scores;
  math::Vec updated_scores;
  std::vector<bool> is_outside;
  std::vector<bool> model_updated;
  int absorbed = 0;

  double frozen_auc() const { return math::RocAuc(frozen_scores, is_outside); }
  double updated_auc() const {
    return math::RocAuc(updated_scores, is_outside);
  }
};

SoakRun RunSoak(const std::vector<rf::ScanRecord>& train,
                const std::vector<rf::ScanRecord>& test, uint64_t seed) {
  SoakRun run;
  // Pass 1: frozen model (self-enhancement off).
  Gem frozen(DriftConfig(/*online_update=*/false, seed));
  EXPECT_TRUE(frozen.Train(train).ok());
  // Pass 2: identical training, label-free updates on.
  Gem updating(DriftConfig(/*online_update=*/true, seed));
  EXPECT_TRUE(updating.Train(train).ok());
  GemOverlay frozen_overlay;
  GemOverlay updating_overlay;
  for (const rf::ScanRecord& record : test) {
    const InferenceResult f = frozen.Infer(record, frozen_overlay);
    const InferenceResult u = updating.Infer(record, updating_overlay);
    run.frozen_scores.push_back(f.score);
    run.updated_scores.push_back(u.score);
    run.is_outside.push_back(!record.inside);
    run.model_updated.push_back(u.model_updated);
    run.absorbed += u.model_updated ? 1 : 0;
  }
  return run;
}

TEST(DriftGoldenTest, SelfEnhancementTracksSecularDrift) {
  const std::string train_path = GoldenDir() + "/drift_train.csv";
  const std::string test_path = GoldenDir() + "/drift_test.csv";
  const std::string golden_path =
      GoldenDir() + "/drift_scores." +
      math::kernels::BackendName(math::kernels::ActiveBackend()) +
      ".golden";
  const bool regen = std::getenv("GEM_REGEN_GOLDEN") != nullptr;

  if (regen) {
    rf::DatasetOptions options;
    options.train_duration_s = 240.0;
    options.test_segments = 12;
    options.test_segment_duration_s = 300.0;
    options.seed = 3031;
    rf::PropagationConfig prop;
    // The soak: an hour-long test stream over which the whole
    // neighborhood monotonically walks ~9 dB off the training-time
    // world — far enough that a frozen model's histograms go stale
    // while gradual absorption can keep tracking.
    prop.secular_drift_db_per_hour = 9.0;
    const rf::Dataset data =
        rf::GenerateScenarioDataset(rf::HomePreset(4), options, prop);
    ASSERT_TRUE(rf::SaveRecordsCsv(train_path, data.train).ok());
    ASSERT_TRUE(rf::SaveRecordsCsv(test_path, data.test).ok());
  }

  const auto train = rf::LoadRecordsCsv(train_path);
  ASSERT_TRUE(train.ok())
      << train.status().ToString()
      << " — run with GEM_REGEN_GOLDEN=1 to create the fixtures";
  const auto test = rf::LoadRecordsCsv(test_path);
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  ASSERT_FALSE(test.value().empty());

  const SoakRun run = RunSoak(train.value(), test.value(), /*seed=*/5);
  std::vector<std::string> actual;
  for (size_t i = 0; i < run.frozen_scores.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%a %a %d", run.frozen_scores[i],
                  run.updated_scores[i], run.model_updated[i] ? 1 : 0);
    actual.push_back(buf);
  }

  // Mechanism direction, independent of the exact bits: the soak must
  // trigger absorption, and absorbing confident normals during drift
  // must not cost ranking quality — the paper's self-enhancement claim.
  const double frozen_auc = run.frozen_auc();
  const double updated_auc = run.updated_auc();
  const int absorbed = run.absorbed;
  EXPECT_GT(absorbed, 0) << "soak never exercised self-enhancement";
  EXPECT_GE(updated_auc, frozen_auc - 1e-9)
      << "label-free updates degraded ranking under drift";

  if (regen) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good());
    std::fprintf(stderr, "frozen auc %.6f -> updating auc %.6f (%d absorbed)\n",
                 frozen_auc, updated_auc, absorbed);
    GTEST_SKIP() << "regenerated " << golden_path << " (" << actual.size()
                 << " results) — commit the new fixtures";
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << golden_path << " missing — run with GEM_REGEN_GOLDEN=1";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) expected.push_back(line);
  }

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "record " << i
        << " drifted (format: frozen_score updated_score updated_flag); "
        << "if the numerics change is intentional, regenerate with "
        << "GEM_REGEN_GOLDEN=1 and commit";
  }
}

// The direction check above rests on one seed. Over BiSAGE seeds 1-12
// of the same config, every updating pass must absorb records, and
// updating must beat freezing in the mean AUC.
TEST(DriftGoldenTest, SelfEnhancementGainsOnAverageOverSeeds) {
  const auto train = rf::LoadRecordsCsv(GoldenDir() + "/drift_train.csv");
  ASSERT_TRUE(train.ok()) << train.status().ToString();
  const auto test = rf::LoadRecordsCsv(GoldenDir() + "/drift_test.csv");
  ASSERT_TRUE(test.ok()) << test.status().ToString();

  constexpr int kSeeds = 12;
  double gain_sum = 0.0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SoakRun run = RunSoak(train.value(), test.value(), seed);
    EXPECT_GT(run.absorbed, 0) << "seed " << seed << " absorbed nothing";
    const double gain = run.updated_auc() - run.frozen_auc();
    std::printf("seed %2d: frozen auc %.4f, updating auc %.4f (%+.4f)\n",
                static_cast<int>(seed), run.frozen_auc(), run.updated_auc(),
                gain);
    gain_sum += gain;
  }
  EXPECT_GT(gain_sum / kSeeds, 0.0)
      << "label-free updates did not improve ranking on average";
}

}  // namespace
}  // namespace gem::core
