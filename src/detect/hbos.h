#ifndef GEM_DETECT_HBOS_H_
#define GEM_DETECT_HBOS_H_

#include <vector>

#include "base/statusor.h"
#include "detect/detector.h"
#include "math/matrix.h"
#include "math/rng.h"

namespace gem::detect {

/// Per-dimension histogram density model (the core of HBOS,
/// Section IV-C). Samples added after Fit (GEM's online update,
/// Section V-B) "recalculate the d histograms": a value outside a
/// dimension's current range widens that range and rebuilds its bin
/// counts from the retained samples, so the model's support can grow
/// with confidently-normal data.
class HistogramModel {
 public:
  HistogramModel() = default;

  /// Builds m-bin histograms per dimension from the data rows.
  /// `max_retained` > 0 bounds the retained-sample buffer (see below);
  /// 0 retains every sample forever (the historical behavior).
  Status Fit(const std::vector<math::Vec>& data, int bins,
             long max_retained = 0);

  /// Adds one sample (Equation (9)'s hist_j counts grow). In-range
  /// values are a cheap increment; out-of-range values trigger a
  /// per-dimension range expansion + recount.
  void Add(const math::Vec& x);

  /// Raw HBOS score (Equation (9)): sum_j log(1 / p_j(x_j)) with
  /// Laplace-smoothed relative bin frequencies; out-of-range values
  /// score as empty bins.
  double RawScore(const math::Vec& x) const;

  int dimensions() const { return static_cast<int>(lo_.size()); }
  int bins() const { return bins_; }
  long samples() const { return samples_; }
  /// Samples retained for range-expanding recounts, one row per
  /// sample (rows x dimensions; possibly a borrowed view over a
  /// mapped snapshot). With an unlimited buffer this is every sample
  /// the model has seen (training + absorbed updates); with
  /// `max_retained` set it is a deterministic uniform reservoir over
  /// them, and recounts scale the reservoir back up to `samples()`
  /// total mass.
  const math::Matrix& data() const { return data_; }
  long max_retained() const { return max_retained_; }

  /// Converts any borrowed storage (counts + retained samples loaded
  /// as views over a mapped snapshot) into owned buffers. Add() calls
  /// this itself, so a view-backed model privatizes its pages exactly
  /// when it first absorbs a sample.
  void Materialize();

  /// Snapshot support (store/snapshot_v2.cc): the full mutable state, so a
  /// fitted model round-trips bit-identically through the wire format.
  struct PersistedState {
    int bins = 0;
    long samples = 0;
    long max_retained = 0;
    math::Vec lo;
    math::Vec hi;
    math::Matrix counts;
    /// Retained samples, one row per sample (rows x dimensions).
    math::Matrix data;
    math::Rng::State reservoir_rng;
  };
  PersistedState ExportState() const;
  static StatusOr<HistogramModel> FromState(PersistedState state);

 private:
  int BinIndex(int dim, double value) const;  // -1 when out of range
  void RebuildDimension(int dim);
  /// Reservoir-samples x into data_ (Algorithm R on the stream of all
  /// Add()ed samples); returns whether a retained sample was evicted
  /// (or x itself dropped) to honor max_retained_.
  bool Retain(const math::Vec& x);

  int bins_ = 0;
  long samples_ = 0;
  long max_retained_ = 0;         // 0 = unlimited
  math::Vec lo_;
  math::Vec hi_;
  math::Matrix counts_;  // dimensions x bins
  math::Matrix data_;    // retained rows for range-expanding recounts
  math::Rng reservoir_rng_{0x9E5E7401Dull};
};

/// The original histogram-based outlier score detector (HBOS,
/// Goldstein & Dengel) with the contamination-based threshold the
/// paper starts from: normalized training scores sorted, threshold at
/// index n * gamma.
struct HbosOptions {
  int bins = 10;
  double contamination = 0.1;
  /// Upper bound on samples the histogram model retains for its
  /// range-expanding recounts (0 = unlimited). A long-lived server
  /// absorbing confident normals otherwise grows without bound.
  long max_retained_samples = 0;
};

class HbosDetector : public OutlierDetector {
 public:
  explicit HbosDetector(HbosOptions options = HbosOptions()) : options_(options) {}

  Status Fit(const std::vector<math::Vec>& normal) override;
  /// Min-max-normalized raw score (normalization frozen from training).
  double Score(const math::Vec& x) const override;
  bool IsOutlier(const math::Vec& x) const override;

  double threshold() const { return threshold_; }
  double score_lo() const { return score_lo_; }
  double score_hi() const { return score_hi_; }
  const HistogramModel& model() const { return model_; }

  /// Converts any borrowed histogram storage (a detector decoded as
  /// views over a mapped snapshot) into owned buffers; no-op when the
  /// model already owns its bytes. Required before the detector may
  /// outlive the mapping it was loaded from.
  void Materialize() { model_.Materialize(); }

 protected:
  /// Normalizes a raw score with the frozen training min/max.
  double Normalize(double raw) const;

  HbosOptions options_;
  HistogramModel model_;
  double score_lo_ = 0.0;
  double score_hi_ = 1.0;
  double threshold_ = 1.0;
};

/// GEM's enhanced detector ("OD", Section IV-C + V-B): the normalized
/// HBOS score is pushed through the Boltzmann rescaling S_T
/// (Equation (10)), the decision threshold tau_u replaces the
/// data-size-dependent contamination threshold (Equation (11)), and
/// highly confident normal samples (S_T < tau_l) are folded back into
/// the histograms online. The paper treats T, tau_u and tau_l as
/// "hyperparameters to be optimized in the learning process": Fit()
/// estimates how *fresh* in-premises samples score by k-fold
/// cross-scoring (each fold is scored by a model fitted on the other
/// folds) and places tau_u just above that distribution and tau_l
/// inside its bulk.
struct EnhancedHbosOptions {
  int bins = 10;
  /// Scaling factor T of Equation (10).
  double temperature = 0.06;
  /// Bound on retained samples in the histogram model (0 = unlimited);
  /// see HbosOptions::max_retained_samples.
  long max_retained_samples = 0;

  /// kInvalidArgument describing the first out-of-range knob, Ok
  /// otherwise. Checked by Gem/serve config validation.
  Status Validate() const;
};

class EnhancedHbosDetector : public HbosDetector {
 public:
  explicit EnhancedHbosDetector(
      EnhancedHbosOptions options = EnhancedHbosOptions());

  Status Fit(const std::vector<math::Vec>& normal) override;
  /// S_T of Equation (10) — already in (0, 1). Note that far outliers
  /// saturate to 1.0 in double precision; use NormalizedScore for
  /// full-resolution ROC curves.
  double Score(const math::Vec& x) const override;
  bool IsOutlier(const math::Vec& x) const override;
  /// Absorbs x into the histograms iff its score is below tau_l.
  /// Returns whether the model was updated; kInvalidArgument when x's
  /// dimension does not match the fitted model.
  StatusOr<bool> MaybeUpdate(const math::Vec& x) override;

  /// The min-max normalized HBOS score Hbar (0..1 on training data;
  /// may exceed 1 for new samples). Monotonically equivalent to
  /// Score() but free of softmax saturation.
  double NormalizedScore(const math::Vec& x) const;

  /// Decision thresholds in Hbar space, as Fit() calibrated them.
  double hbar_tau_upper() const { return hbar_tau_upper_; }
  double hbar_tau_lower() const { return hbar_tau_lower_; }

  /// Snapshot support (store/snapshot_v2.cc): everything Fit() derived,
  /// so a fitted detector round-trips without refitting.
  struct PersistedState {
    HistogramModel::PersistedState model;
    double score_lo = 0.0;
    double score_hi = 1.0;
    double threshold = 1.0;
    double hbar_tau_upper = 0.5;
    double hbar_tau_lower = 0.3;
  };
  PersistedState ExportState() const;
  static StatusOr<EnhancedHbosDetector> FromState(EnhancedHbosOptions options,
                                                  PersistedState state);

 private:
  EnhancedHbosOptions enhanced_options_;
  // Decisions compare Hbar against these (mathematically identical to
  // comparing S_T against tau_u/tau_l, but immune to the softmax's
  // double-precision saturation plateau).
  double hbar_tau_upper_ = 0.5;
  double hbar_tau_lower_ = 0.3;
};

}  // namespace gem::detect

#endif  // GEM_DETECT_HBOS_H_
