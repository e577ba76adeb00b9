#ifndef GEM_RF_PROPAGATION_H_
#define GEM_RF_PROPAGATION_H_

#include "rf/environment.h"
#include "rf/types.h"

namespace gem::rf {

/// Parameters of the log-distance path loss model with wall attenuation
/// and log-normal shadowing:
///
///   RSS = ref_rss_1m - 10 * n * log10(max(d, 0.5))
///         - walls(from, to) - floor_gap * floor_attenuation
///         + spatial_shadowing(mac, cell)   (deterministic per location)
///         + temporal_noise                 (fresh per measurement)
struct PropagationConfig {
  double path_loss_exponent = 2.8;
  /// 5 GHz free-space loss is higher; this offset is added to the
  /// distance term for 5 GHz APs (on top of their ref RSS).
  double extra_5ghz_path_db = 6.0;
  double floor_attenuation_db = 15.0;
  /// Std-dev of the frozen spatial shadowing field.
  double shadowing_sigma_db = 3.0;
  /// Grid cell size (m) over which the shadowing field is constant.
  double shadowing_cell_m = 2.0;
  /// Std-dev of per-measurement temporal noise.
  double noise_sigma_db = 2.0;
  /// Receiver sensitivity: mean RSS below this is undetectable.
  double sensitivity_dbm = -92.0;
  /// Width of the soft detection edge: detection probability falls
  /// linearly from 1 to 0 across [sensitivity, sensitivity - softness].
  double detection_softness_db = 6.0;
  /// Slow per-AP temporal drift (an interferer near one AP, a door
  /// opening): each AP's RSS oscillates with this amplitude around its
  /// static mean, with a per-AP phase and a period jittered around
  /// drift_period_s.
  double drift_amplitude_db = 1.0;
  double drift_period_s = 3000.0;
  /// Slow COMMON-MODE drift: receiver-side effects (body absorption,
  /// device orientation, crowd density) shift every AP's RSS in a scan
  /// together. This is the dominant real-world drift — Table IV's
  /// hour-scale mean-RSS swing — and it is what punishes absolute-RSS
  /// methods while leaving relative signal structure intact.
  double common_drift_amplitude_db = 3.0;
  double common_drift_period_s = 4000.0;
  /// Long-horizon SECULAR drift: a monotone common-mode trend in dB
  /// per hour (furniture moved, seasonal humidity, an AP aging) on top
  /// of the sinusoidal terms. This is what a frozen model slowly walks
  /// away from and label-free self-enhancement (Section V-B) must
  /// absorb; 0 (the default) disables it.
  double secular_drift_db_per_hour = 0.0;
  /// Seed of the frozen shadowing field (part of the world, not of any
  /// one measurement stream).
  uint64_t shadowing_seed = 0xC0FFEE;
};

/// Deterministic-world propagation model. Mean RSS at a point is a pure
/// function of the environment (so repeated visits to the same spot see
/// the same spatial texture); the Scanner draws each measurement's
/// temporal noise, with noise_sigma_db widened by its device profile.
class PropagationModel {
 public:
  PropagationModel(const Environment* env, PropagationConfig config);

  /// Mean (noise-free) RSS of `ap` at receiver position/floor and
  /// time, including path loss, walls, floors, the frozen shadowing
  /// field, and the slow per-AP drift. Does not include per-
  /// measurement noise.
  double MeanRssDbm(const AccessPoint& ap, Point rx, int rx_floor,
                    double time_s = 0.0) const;

  /// Probability that a signal with this mean RSS is detected by a
  /// scan (soft threshold around the sensitivity floor).
  double DetectionProbability(double mean_rss_dbm) const;

  const PropagationConfig& config() const { return config_; }

 private:
  /// Frozen shadowing: hash (mac, cell) -> N(0, sigma), stable across
  /// calls.
  double SpatialShadowingDb(const std::string& mac, Point rx) const;

  /// Slow sinusoidal drift of this AP at time t (deterministic per
  /// MAC).
  double DriftDb(const std::string& mac, double time_s) const;

 public:
  /// Common-mode (receiver-side) drift at time t, added to every AP of
  /// a scan by the Scanner.
  double CommonDriftDb(double time_s) const;

 private:

  const Environment* env_;
  PropagationConfig config_;
};

}  // namespace gem::rf

#endif  // GEM_RF_PROPAGATION_H_
