#include "detect/hbos.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tests/common/test_blobs.h"

namespace gem::detect {
namespace {

using testing::BimodalNormal;
using testing::FarOutliers;
using testing::FreshInliers;
using testing::OutlierRate;

TEST(HistogramModelTest, RejectsBadInput) {
  HistogramModel model;
  EXPECT_FALSE(model.Fit({}, 10).ok());
  EXPECT_FALSE(model.Fit({{1.0}}, 0).ok());
}

TEST(HistogramModelTest, ScoresDenseBinsLower) {
  HistogramModel model;
  // Dimension 0: forty values at ~0, one at 1 (sparse tail bin).
  std::vector<math::Vec> data;
  for (int i = 0; i < 40; ++i) data.push_back({0.01 * i / 40.0});
  data.push_back({1.0});
  ASSERT_TRUE(model.Fit(data, 10).ok());
  EXPECT_LT(model.RawScore({0.005}), model.RawScore({0.95}));
}

TEST(HistogramModelTest, OutOfRangeScoresAsEmptyBin) {
  HistogramModel model;
  ASSERT_TRUE(model.Fit(BimodalNormal(100, 2, 1), 10).ok());
  // Far outside the fitted range must be at least as anomalous as the
  // rarest in-range bin.
  const double far = model.RawScore({100.0, 100.0});
  const double in = model.RawScore({1.0, 1.0});
  EXPECT_GT(far, in);
}

TEST(HistogramModelTest, AddShiftsDensity) {
  HistogramModel model;
  ASSERT_TRUE(model.Fit(BimodalNormal(100, 2, 2), 10).ok());
  const math::Vec probe{1.0, 1.0};
  const double before = model.RawScore(probe);
  for (int i = 0; i < 50; ++i) model.Add(probe);
  EXPECT_LT(model.RawScore(probe), before);
  EXPECT_EQ(model.samples(), 150);
}

TEST(HbosDetectorTest, SeparatesBlobsFromOutliers) {
  HbosDetector detector;
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 3)).ok());
  EXPECT_GE(OutlierRate(detector, FarOutliers(50, 4, 3)), 0.95);
  EXPECT_LE(OutlierRate(detector, FreshInliers(100, 4, 3)), 0.35);
}

TEST(HbosDetectorTest, ContaminationControlsTrainFlagRate) {
  HbosOptions options;
  options.contamination = 0.2;
  HbosDetector detector(options);
  const auto train = BimodalNormal(200, 4, 4);
  ASSERT_TRUE(detector.Fit(train).ok());
  // About 20% of training data scores above the threshold.
  EXPECT_NEAR(OutlierRate(detector, train), 0.2, 0.08);
}

TEST(EnhancedHbosDetectorTest, ScoreIsBoundedAndMonotone) {
  EnhancedHbosDetector detector;
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 5)).ok());
  const auto outliers = FarOutliers(20, 4, 5);
  const auto inliers = FreshInliers(20, 4, 5);
  for (const auto& x : outliers) {
    // Far outliers saturate to ~1 (the softmax can hit 1.0 exactly in
    // double precision); the score never leaves [0, 1].
    const double s = detector.Score(x);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  // Every outlier scores above every inlier mean-wise.
  double s_out = 0.0;
  double s_in = 0.0;
  for (const auto& x : outliers) s_out += detector.Score(x);
  for (const auto& x : inliers) s_in += detector.Score(x);
  EXPECT_GT(s_out / outliers.size(), s_in / inliers.size());
}

TEST(EnhancedHbosDetectorTest, SoftmaxSharpensSeparation) {
  // The enhanced score pushes normal scores toward 0 and abnormal
  // toward 1 (the paper's Figure 8 rationale).
  EnhancedHbosDetector detector;
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 6)).ok());
  const auto inliers = FreshInliers(50, 4, 6);
  double mean_in = 0.0;
  for (const auto& x : inliers) mean_in += detector.Score(x);
  mean_in /= inliers.size();

  const auto outliers = FarOutliers(50, 4, 6);
  double mean_out = 0.0;
  for (const auto& x : outliers) mean_out += detector.Score(x);
  mean_out /= outliers.size();

  EXPECT_LT(mean_in, 0.35);
  EXPECT_GT(mean_out, 0.9);
  EXPECT_GT(mean_out - mean_in, 0.6);
}

TEST(EnhancedHbosDetectorTest, DetectsInOut) {
  EnhancedHbosDetector detector;
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 7)).ok());
  EXPECT_GE(OutlierRate(detector, FarOutliers(50, 4, 7)), 0.98);
  EXPECT_LE(OutlierRate(detector, FreshInliers(100, 4, 7)), 0.2);
}

TEST(EnhancedHbosDetectorTest, UpdatesOnlyOnConfidentNormals) {
  EnhancedHbosDetector detector;
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 8)).ok());
  // A clear outlier is never absorbed.
  EXPECT_FALSE(detector.MaybeUpdate(FarOutliers(1, 4, 8)[0]).value());
  // A clear inlier is absorbed.
  bool any_update = false;
  for (const auto& x : FreshInliers(20, 4, 8)) {
    any_update |= detector.MaybeUpdate(x).value();
  }
  EXPECT_TRUE(any_update);
}

TEST(EnhancedHbosDetectorTest, MaybeUpdateReportsUnusableSamples) {
  EnhancedHbosDetector detector;
  // Unfitted: the offer is a precondition error, not a silent decline.
  EXPECT_EQ(detector.MaybeUpdate({0.0, 0.0}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 8)).ok());
  // Wrong width: invalid argument.
  EXPECT_EQ(detector.MaybeUpdate({0.0, 0.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EnhancedHbosDetectorTest, AbsorbedSamplesDensifyTheirRegion) {
  // The update contract of Section V-B: once a confident normal
  // sample is absorbed, its neighborhood becomes denser, so repeated
  // observations there score monotonically no higher. (The F-score
  // improvement of Figure 9(b) is an integration-level property
  // exercised by the fig9 bench.)
  math::Rng rng(9);
  std::vector<math::Vec> train;
  for (int i = 0; i < 100; ++i) {
    train.push_back({rng.Normal(-1.0, 0.15), rng.Normal(-1.0, 0.15)});
  }
  EnhancedHbosOptions options;
  options.temperature = 0.5;  // keep S_T off its saturation plateaus
  EnhancedHbosDetector detector(options);
  ASSERT_TRUE(detector.Fit(train).ok());

  // A confident in-distribution location.
  const math::Vec spot{-1.0, -1.0};
  ASSERT_LT(detector.Score(spot), 0.45);
  const double before = detector.Score(spot);
  int updates = 0;
  for (int i = 0; i < 100; ++i) {
    updates += detector.MaybeUpdate(spot).value() ? 1 : 0;
  }
  EXPECT_EQ(updates, 100);
  EXPECT_LE(detector.Score(spot), before);
}

TEST(EnhancedHbosDetectorTest, ResistsOutwardDrift) {
  // Section VII: a "bad actor" drifting slowly outward must not drag
  // the model with them — once samples leave the learned support the
  // update gate closes and the far region stays anomalous.
  math::Rng rng(10);
  std::vector<math::Vec> train;
  for (int i = 0; i < 150; ++i) {
    train.push_back({rng.Normal(-1.0, 0.15), rng.Normal(-1.0, 0.15)});
  }
  EnhancedHbosDetector detector;  // paper defaults: T=0.06, strict taus
  ASSERT_TRUE(detector.Fit(train).ok());

  for (int i = 0; i < 400; ++i) {
    const double c = -1.0 + 3.0 * (i / 400.0);  // drift far outside
    (void)detector.MaybeUpdate({rng.Normal(c, 0.1), rng.Normal(c, 0.1)});
  }
  // The drift endpoint is still a clear outlier.
  EXPECT_TRUE(detector.IsOutlier({2.0, 2.0}));
}

TEST(HistogramModelTest, RetentionCapBoundsBuffer) {
  const auto data = BimodalNormal(100, 2, 11);
  HistogramModel model;
  ASSERT_TRUE(model.Fit(data, 10, /*max_retained=*/40).ok());
  EXPECT_EQ(model.samples(), 100);
  EXPECT_EQ(model.data().rows(), 40);
  for (int i = 0; i < 500; ++i) model.Add(data[i % data.size()]);
  EXPECT_EQ(model.samples(), 600);
  EXPECT_EQ(model.data().rows(), 40);  // never grows past the cap
}

TEST(HistogramModelTest, DefaultRetainsEverything) {
  const auto data = BimodalNormal(100, 2, 12);
  HistogramModel model;
  ASSERT_TRUE(model.Fit(data, 10).ok());
  for (int i = 0; i < 50; ++i) model.Add(data[i]);
  EXPECT_EQ(model.data().rows(), 150);
  EXPECT_EQ(model.samples(), 150);
}

TEST(HistogramModelTest, CapAboveStreamSizeMatchesUnlimited) {
  const auto data = BimodalNormal(80, 2, 13);
  HistogramModel unlimited;
  HistogramModel capped;
  ASSERT_TRUE(unlimited.Fit(data, 10).ok());
  ASSERT_TRUE(capped.Fit(data, 10, /*max_retained=*/10000).ok());
  for (const auto& x : FreshInliers(30, 2, 13)) {
    unlimited.Add(x);
    capped.Add(x);
  }
  // The reservoir only kicks in past the cap; under it, behavior —
  // including range-expanding recounts — is identical.
  for (const auto& x : BimodalNormal(20, 2, 14)) {
    EXPECT_DOUBLE_EQ(unlimited.RawScore(x), capped.RawScore(x));
  }
}

TEST(HistogramModelTest, ReservoirIsDeterministic) {
  const auto data = BimodalNormal(100, 2, 15);
  HistogramModel a;
  HistogramModel b;
  ASSERT_TRUE(a.Fit(data, 10, /*max_retained=*/25).ok());
  ASSERT_TRUE(b.Fit(data, 10, /*max_retained=*/25).ok());
  for (int i = 0; i < 300; ++i) {
    a.Add(data[i % data.size()]);
    b.Add(data[i % data.size()]);
  }
  ASSERT_EQ(a.data().rows(), b.data().rows());
  for (int i = 0; i < a.data().rows(); ++i) {
    for (int j = 0; j < a.data().cols(); ++j) {
      EXPECT_DOUBLE_EQ(a.data().At(i, j), b.data().At(i, j));
    }
  }
  for (const auto& x : BimodalNormal(20, 2, 16)) {
    EXPECT_DOUBLE_EQ(a.RawScore(x), b.RawScore(x));
  }
}

TEST(HistogramModelTest, CappedRecountKeepsMassInvariant) {
  // A range-expanding Add rebuilds from the reservoir scaled back up to
  // samples(); the histogram's total mass must stay samples() per
  // dimension, capped or not.
  const auto data = BimodalNormal(100, 2, 17);
  HistogramModel model;
  ASSERT_TRUE(model.Fit(data, 10, /*max_retained=*/30).ok());
  model.Add({100.0, -100.0});  // far out of range: forces the recount
  EXPECT_EQ(model.samples(), 101);
  // Rare regions still score as rare after the scaled rebuild.
  EXPECT_GT(model.RawScore({90.0, -90.0}), model.RawScore(data[0]));
}

TEST(HistogramModelTest, EvictionCounterTicks) {
  auto& evicted = gem::obs::MetricsRegistry::Get().GetCounter(
      "gem_hbos_evicted_total");
  const uint64_t before = evicted.value();
  const auto data = BimodalNormal(50, 2, 18);
  HistogramModel model;
  ASSERT_TRUE(model.Fit(data, 10, /*max_retained=*/10).ok());
  for (int i = 0; i < 100; ++i) model.Add(data[i % data.size()]);
  // 50 - 10 drops during Fit plus 100 capped Adds = 140 evictions.
  EXPECT_EQ(evicted.value() - before, 140u);
}

TEST(EnhancedHbosDetectorTest, RetentionCapFlowsThrough) {
  EnhancedHbosOptions options;
  options.max_retained_samples = 60;
  EnhancedHbosDetector detector(options);
  ASSERT_TRUE(detector.Fit(BimodalNormal(200, 4, 19)).ok());
  EXPECT_EQ(detector.model().samples(), 200);
  EXPECT_EQ(detector.model().data().rows(), 60);
  EXPECT_EQ(detector.model().max_retained(), 60);
  // The bounded detector still detects.
  EXPECT_GE(OutlierRate(detector, FarOutliers(50, 4, 19)), 0.95);
}

TEST(EnhancedHbosDetectorTest, ValidatesOptions) {
  EnhancedHbosOptions options;
  options.temperature = 0.0;
  EXPECT_DEATH(EnhancedHbosDetector detector(options), "temperature");
}

}  // namespace
}  // namespace gem::detect
