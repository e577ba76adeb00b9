#include "rf/propagation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gem::rf {
namespace {

PropagationConfig NoNoiseConfig() {
  PropagationConfig config;
  config.shadowing_sigma_db = 0.0;
  config.noise_sigma_db = 0.0;
  config.drift_amplitude_db = 0.0;
  config.common_drift_amplitude_db = 0.0;
  return config;
}

TEST(PropagationTest, RssDecreasesWithDistance) {
  Environment env;
  env.SetFence(50.0, 50.0);
  const PropagationModel model(&env, NoNoiseConfig());
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {0, 0};

  double prev = 1e9;
  for (double d = 1.0; d <= 40.0; d += 2.0) {
    const double rss = model.MeanRssDbm(ap, {d, 0}, 0);
    EXPECT_LT(rss, prev) << "distance " << d;
    prev = rss;
  }
}

TEST(PropagationTest, ReferenceDistanceValue) {
  Environment env;
  env.SetFence(50.0, 50.0);
  const PropagationModel model(&env, NoNoiseConfig());
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {0, 0};
  ap.ref_rss_1m_dbm = -40.0;
  EXPECT_NEAR(model.MeanRssDbm(ap, {1.0, 0}, 0), -40.0, 1e-9);
}

TEST(PropagationTest, DistanceClampedBelowHalfMeter) {
  Environment env;
  env.SetFence(50.0, 50.0);
  const PropagationModel model(&env, NoNoiseConfig());
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {0, 0};
  // At 0.1 m and 0.5 m the clamped distance is identical.
  EXPECT_DOUBLE_EQ(model.MeanRssDbm(ap, {0.1, 0}, 0),
                   model.MeanRssDbm(ap, {0.5, 0}, 0));
}

TEST(PropagationTest, WallsReduceRss) {
  Environment env;
  env.SetFence(10.0, 10.0);
  env.AddExteriorWalls(8.0);
  const PropagationModel model(&env, NoNoiseConfig());
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {5, 5};  // inside
  const double inside = model.MeanRssDbm(ap, {5, 9}, 0);    // 4 m, no wall
  const double outside = model.MeanRssDbm(ap, {5, 14}, 0);  // 9 m, 1 wall
  // The gap must exceed pure path loss by the wall attenuation.
  const double pure_path_gap =
      10.0 * model.config().path_loss_exponent * std::log10(9.0 / 4.0);
  EXPECT_NEAR(inside - outside, pure_path_gap + 8.0, 1e-9);
}

TEST(PropagationTest, FiveGhzWeakerThroughPathAndWalls) {
  Environment env;
  env.SetFence(10.0, 10.0);
  env.AddExteriorWalls(8.0, 3.0);
  const PropagationModel model(&env, NoNoiseConfig());
  AccessPoint ap24;
  ap24.mac = "a";
  ap24.position = {5, 5};
  ap24.band = Band::k2_4GHz;
  AccessPoint ap5 = ap24;
  ap5.band = Band::k5GHz;
  // Same position outside: 5 GHz pays extra path and wall loss.
  const double rss24 = model.MeanRssDbm(ap24, {5, 14}, 0);
  const double rss5 = model.MeanRssDbm(ap5, {5, 14}, 0);
  EXPECT_DOUBLE_EQ(rss24 - rss5,
                   model.config().extra_5ghz_path_db + 3.0);
}

TEST(PropagationTest, FloorGapAttenuates) {
  Environment env;
  env.SetFence(10.0, 10.0, 2);
  const PropagationModel model(&env, NoNoiseConfig());
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {5, 5};
  ap.floor = 0;
  const double same = model.MeanRssDbm(ap, {7, 5}, 0);
  const double other = model.MeanRssDbm(ap, {7, 5}, 1);
  EXPECT_DOUBLE_EQ(same - other, model.config().floor_attenuation_db);
}

TEST(PropagationTest, ShadowingIsDeterministicPerLocation) {
  Environment env;
  env.SetFence(20.0, 20.0);
  PropagationConfig config;
  config.noise_sigma_db = 0.0;
  config.shadowing_sigma_db = 3.0;
  config.drift_amplitude_db = 0.0;
  config.common_drift_amplitude_db = 0.0;
  const PropagationModel model(&env, config);
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {0, 0};
  EXPECT_DOUBLE_EQ(model.MeanRssDbm(ap, {7.3, 4.2}, 0),
                   model.MeanRssDbm(ap, {7.3, 4.2}, 0));
  // Different shadowing cells generally differ.
  EXPECT_NE(model.MeanRssDbm(ap, {7.3, 4.2}, 0),
            model.MeanRssDbm(ap, {13.0, 15.0}, 0) +
                10.0 * config.path_loss_exponent *
                    (std::log10(std::hypot(13.0, 15.0)) -
                     std::log10(std::hypot(7.3, 4.2))));
}

TEST(PropagationTest, DetectionProbabilityEdges) {
  Environment env;
  env.SetFence(5.0, 5.0);
  PropagationConfig config = NoNoiseConfig();
  config.sensitivity_dbm = -92.0;
  config.detection_softness_db = 6.0;
  const PropagationModel model(&env, config);
  EXPECT_DOUBLE_EQ(model.DetectionProbability(-80.0), 1.0);
  EXPECT_DOUBLE_EQ(model.DetectionProbability(-92.0), 1.0);
  EXPECT_DOUBLE_EQ(model.DetectionProbability(-95.0), 0.5);
  EXPECT_DOUBLE_EQ(model.DetectionProbability(-98.0), 0.0);
  EXPECT_DOUBLE_EQ(model.DetectionProbability(-120.0), 0.0);
}

TEST(PropagationTest, DriftIsDeterministicAndBounded) {
  Environment env;
  env.SetFence(10.0, 10.0);
  PropagationConfig config;
  config.shadowing_sigma_db = 0.0;
  config.noise_sigma_db = 0.0;
  config.drift_amplitude_db = 2.0;
  config.common_drift_amplitude_db = 0.0;
  const PropagationModel model(&env, config);
  AccessPoint ap;
  ap.mac = "a";
  ap.position = {0, 0};
  const double base = model.MeanRssDbm(ap, {3, 0}, 0, 0.0);
  // Deterministic per (mac, time).
  EXPECT_DOUBLE_EQ(model.MeanRssDbm(ap, {3, 0}, 0, 123.0),
                   model.MeanRssDbm(ap, {3, 0}, 0, 123.0));
  // Bounded by the (jittered) amplitude and actually varying.
  bool varies = false;
  for (double t = 0.0; t < 4000.0; t += 250.0) {
    const double rss = model.MeanRssDbm(ap, {3, 0}, 0, t);
    EXPECT_LE(std::fabs(rss - base), 2.0 * 2.0 * 1.5 + 1e-9);
    varies |= std::fabs(rss - model.MeanRssDbm(ap, {3, 0}, 0, 0.0)) > 0.2;
  }
  EXPECT_TRUE(varies);
}

TEST(PropagationTest, CommonDriftSharedAcrossAps) {
  Environment env;
  env.SetFence(10.0, 10.0);
  PropagationConfig config;
  config.common_drift_amplitude_db = 3.0;
  const PropagationModel model(&env, config);
  // Common-mode drift is a pure function of time.
  EXPECT_DOUBLE_EQ(model.CommonDriftDb(500.0), model.CommonDriftDb(500.0));
  bool varies = false;
  for (double t = 0.0; t < 8000.0; t += 500.0) {
    EXPECT_LE(std::fabs(model.CommonDriftDb(t)), 3.0 + 1e-9);
    varies |= std::fabs(model.CommonDriftDb(t) -
                        model.CommonDriftDb(0.0)) > 0.5;
  }
  EXPECT_TRUE(varies);
}

}  // namespace
}  // namespace gem::rf
