#include "rf/propagation.h"

#include <cmath>

#include "base/check.h"
#include "math/rng.h"

namespace gem::rf {
namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

PropagationModel::PropagationModel(const Environment* env,
                                   PropagationConfig config)
    : env_(env), config_(config) {
  GEM_CHECK(env != nullptr);
}

double PropagationModel::SpatialShadowingDb(const std::string& mac,
                                            Point rx) const {
  if (config_.shadowing_sigma_db <= 0.0) return 0.0;
  const long cx = std::lround(std::floor(rx.x / config_.shadowing_cell_m));
  const long cy = std::lround(std::floor(rx.y / config_.shadowing_cell_m));
  uint64_t h = config_.shadowing_seed;
  h = HashCombine(h, HashString(mac));
  h = HashCombine(h, static_cast<uint64_t>(cx + (1L << 31)));
  h = HashCombine(h, static_cast<uint64_t>(cy + (1L << 31)));
  // A single deterministic normal draw seeded by the hash.
  math::Rng rng(h);
  return rng.Normal(0.0, config_.shadowing_sigma_db);
}

double PropagationModel::DriftDb(const std::string& mac,
                                 double time_s) const {
  if (config_.drift_amplitude_db <= 0.0) return 0.0;
  const uint64_t h = HashCombine(config_.shadowing_seed ^ 0xD21F7ULL,
                                 HashString(mac));
  math::Rng rng(h);
  const double phase = rng.Uniform(0.0, 2.0 * M_PI);
  const double period = config_.drift_period_s * rng.Uniform(0.7, 1.4);
  const double amplitude = config_.drift_amplitude_db * rng.Uniform(0.5, 1.5);
  return amplitude * std::sin(2.0 * M_PI * time_s / period + phase);
}

double PropagationModel::CommonDriftDb(double time_s) const {
  double drift = config_.secular_drift_db_per_hour * (time_s / 3600.0);
  if (config_.common_drift_amplitude_db > 0.0) {
    math::Rng rng(config_.shadowing_seed ^ 0xC033D41FULL);
    const double phase = rng.Uniform(0.0, 2.0 * M_PI);
    drift += config_.common_drift_amplitude_db *
             std::sin(2.0 * M_PI * time_s / config_.common_drift_period_s +
                      phase);
  }
  return drift;
}

double PropagationModel::MeanRssDbm(const AccessPoint& ap, Point rx,
                                    int rx_floor, double time_s) const {
  const double dx = ap.position.x - rx.x;
  const double dy = ap.position.y - rx.y;
  const double d = std::max(std::sqrt(dx * dx + dy * dy), 0.5);

  double rss = ap.ref_rss_1m_dbm -
               10.0 * config_.path_loss_exponent * std::log10(d);
  if (ap.band == Band::k5GHz) rss -= config_.extra_5ghz_path_db;

  // Walls are evaluated on the receiver's floor: signals from another
  // floor additionally pay the slab attenuation.
  rss -= env_->WallAttenuationDb(ap.position, rx, rx_floor, ap.band);
  rss -= std::abs(ap.floor - rx_floor) * config_.floor_attenuation_db;
  rss += SpatialShadowingDb(ap.mac, rx);
  rss += DriftDb(ap.mac, time_s);
  return rss;
}

double PropagationModel::DetectionProbability(double mean_rss_dbm) const {
  if (mean_rss_dbm >= config_.sensitivity_dbm) return 1.0;
  const double below = config_.sensitivity_dbm - mean_rss_dbm;
  if (below >= config_.detection_softness_db) return 0.0;
  return 1.0 - below / config_.detection_softness_db;
}

}  // namespace gem::rf
