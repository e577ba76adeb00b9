// Chaos test for the MAC-churn path: a seeded renaming storm (most of
// the neighborhood's BSSIDs rotating every couple of minutes) driven
// through the full GEM pipeline, asserting the invariants that keep a
// production fence alive under identifier churn:
//   - every record gets a definite, finite answer (no NaN/inf scores,
//     no crash on streams full of never-seen MACs);
//   - the gem::obs counters move coherently: detector absorptions
//     (gem_od_absorbed_total) match the per-record model_updated
//     flags, and absorbed + declined partition exactly the inside
//     decisions (the only ones offered to MaybeUpdate);
//   - histogram growth stays bounded: with max_retained_samples set
//     below the training-set size, the retained-sample reservoir sits
//     pinned at its cap while gem_hbos_evicted_total counts every
//     overflow, and samples() keeps the true absorbed count.
// A differential leg checks the storm changes identifiers, not stream
// shape: record count and timestamps match the clean stream exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/gem.h"
#include "obs/metrics.h"
#include "rf/dataset.h"
#include "rf/dynamics.h"

namespace gem {
namespace {

rf::Dataset ChurnDataset() {
  rf::DatasetOptions options;
  options.train_duration_s = 150.0;
  options.test_segments = 6;
  options.test_segment_duration_s = 60.0;
  options.seed = 77;
  return rf::GenerateScenarioDataset(rf::HomePreset(3), options);
}

core::GemConfig ChurnConfig() {
  core::GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  config.bisage.num_threads = 1;
  // The bounded-growth invariant under test: absorption must evict,
  // not accumulate. Deliberately below the ~75-record training set so
  // the reservoir is already full when the storm starts.
  config.detector.max_retained_samples = 64;
  return config;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().GetCounter(name).value();
}

TEST(ChurnChaosTest, RenamingStormKeepsPipelineInvariants) {
  rf::Dataset data = ChurnDataset();
  const size_t clean_records = data.test.size();

  rf::MacChurnOptions storm;
  storm.period_s = 120.0;
  storm.rename_fraction = 0.6;
  storm.seed = 4242;
  rf::ApplyMacChurn(data.test, storm);
  ASSERT_EQ(data.test.size(), clean_records);

  core::Gem gem(ChurnConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());
  const long trained_samples = gem.detector().model().samples();

  const uint64_t absorbed_before = CounterValue("gem_od_absorbed_total");
  const uint64_t declined_before = CounterValue("gem_od_declined_total");
  const uint64_t evicted_before = CounterValue("gem_hbos_evicted_total");

  core::GemOverlay overlay;
  int updated = 0;
  int inside = 0;
  int scored = 0;
  for (const rf::ScanRecord& record : data.test) {
    const core::InferenceResult result = gem.Infer(record, overlay);
    // Definite answer: a finite score and a two-valued decision, even
    // for records whose MACs were minted mid-storm.
    ASSERT_TRUE(std::isfinite(result.score)) << "record " << scored;
    ASSERT_TRUE(result.decision == core::Decision::kInside ||
                result.decision == core::Decision::kOutside);
    inside += result.decision == core::Decision::kInside ? 1 : 0;
    updated += result.model_updated ? 1 : 0;
    ++scored;
  }
  EXPECT_EQ(scored, static_cast<int>(clean_records));

  // Counter coherence: absorptions match the per-record flags, and
  // absorbed + declined partition exactly the inside decisions — the
  // only records FinishInfer offers to MaybeUpdate (outside and
  // no-common-MAC records are never offered).
  const uint64_t absorbed =
      CounterValue("gem_od_absorbed_total") - absorbed_before;
  const uint64_t declined =
      CounterValue("gem_od_declined_total") - declined_before;
  EXPECT_EQ(absorbed, static_cast<uint64_t>(updated));
  EXPECT_EQ(absorbed + declined, static_cast<uint64_t>(inside));
  EXPECT_GT(absorbed, 0u);

  // Bounded growth: updates accumulate in the overlay's cloned
  // detector (the base stays frozen). Its model has seen every
  // absorbed sample, yet the reservoir sits pinned at the cap it
  // already hit during training — every absorb evicted instead of
  // growing, and the eviction counter saw each one.
  EXPECT_EQ(gem.detector().model().samples(), trained_samples);
  ASSERT_TRUE(overlay.detector.has_value());
  const detect::HistogramModel& model = overlay.detector->model();
  EXPECT_EQ(model.samples(),
            trained_samples + static_cast<long>(absorbed));
  EXPECT_EQ(static_cast<long>(model.data().rows()),
            ChurnConfig().detector.max_retained_samples);
  EXPECT_EQ(CounterValue("gem_hbos_evicted_total") - evicted_before,
            absorbed);
}

TEST(ChurnChaosTest, StormIsDeterministicAndRenamesOnSchedule) {
  rf::Dataset data = ChurnDataset();
  std::set<std::string> clean_macs;
  for (const rf::ScanRecord& record : data.test) {
    for (const rf::Reading& reading : record.readings) {
      clean_macs.insert(reading.mac);
    }
  }

  rf::MacChurnOptions storm;
  storm.period_s = 90.0;
  storm.rename_fraction = 0.5;
  storm.seed = 11;

  rf::Dataset a = ChurnDataset();
  rf::Dataset b = ChurnDataset();
  rf::ApplyMacChurn(a.test, storm);
  rf::ApplyMacChurn(b.test, storm);

  std::set<std::string> churned_macs;
  ASSERT_EQ(a.test.size(), b.test.size());
  for (size_t i = 0; i < a.test.size(); ++i) {
    // Shape preserved: churn renames identifiers, never drops or
    // reorders readings.
    ASSERT_EQ(a.test[i].readings.size(), data.test[i].readings.size());
    EXPECT_EQ(a.test[i].timestamp_s, data.test[i].timestamp_s);
    for (size_t r = 0; r < a.test[i].readings.size(); ++r) {
      EXPECT_EQ(a.test[i].readings[r].mac, b.test[i].readings[r].mac)
          << "churn must be deterministic for a fixed seed";
      EXPECT_EQ(a.test[i].readings[r].rss_dbm,
                data.test[i].readings[r].rss_dbm)
          << "churn renames MACs, never touches RSS";
      churned_macs.insert(a.test[i].readings[r].mac);
    }
  }
  // Over a 360 s stream with a 90 s period and half the MACs renaming
  // per epoch, the alias universe must strictly outgrow the original.
  EXPECT_GT(churned_macs.size(), clean_macs.size());
}

}  // namespace
}  // namespace gem
