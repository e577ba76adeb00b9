#include "detect/hbos.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

#include "base/check.h"
#include "obs/metrics.h"

namespace gem::detect {
namespace {

constexpr double kLaplace = 0.5;

/// Threshold calibration of EnhancedHbosDetector::Fit: tau_u = P90 +
/// 0.5 * (P90 - P50) and tau_l = P50 of 5-fold cross-validated
/// fresh-sample scores. The spread term buys headroom proportional to
/// how heavy the score tail is.
constexpr int kCalibrationFolds = 5;
constexpr double kCalibrationUpperPercentile = 90.0;
constexpr double kCalibrationSpreadFactor = 0.5;
constexpr double kCalibrationLowerPercentile = 50.0;

/// Fixed seed for the retention reservoir: downsampling is part of the
/// model's deterministic state, not an experiment knob.
constexpr uint64_t kReservoirSeed = 0x9E5E7401Dull;

obs::Counter& EvictionCounter() {
  static obs::Counter& evicted =
      obs::MetricsRegistry::Get().GetCounter("gem_hbos_evicted_total");
  return evicted;
}

}  // namespace

Status HistogramModel::Fit(const std::vector<math::Vec>& data, int bins,
                           long max_retained) {
  if (data.empty()) {
    return Status::InvalidArgument("no training data for histograms");
  }
  if (bins < 1) {
    return Status::InvalidArgument("bin count must be >= 1");
  }
  if (max_retained < 0) {
    return Status::InvalidArgument("max_retained must be >= 0");
  }
  bins_ = bins;
  max_retained_ = max_retained;
  reservoir_rng_ = math::Rng(kReservoirSeed);
  const int d = static_cast<int>(data[0].size());
  lo_.assign(d, 0.0);
  hi_.assign(d, 0.0);
  for (int j = 0; j < d; ++j) {
    double lo = data[0][j];
    double hi = data[0][j];
    for (const math::Vec& row : data) {
      GEM_CHECK(static_cast<int>(row.size()) == d);
      lo = std::min(lo, row[j]);
      hi = std::max(hi, row[j]);
    }
    // Degenerate dimension: widen slightly so the single bin catches it.
    if (hi <= lo) hi = lo + 1e-9;
    lo_[j] = lo;
    hi_[j] = hi;
  }
  counts_ = math::Matrix(d, bins_, 0.0);
  data_ = math::Matrix(0, d);
  samples_ = 0;
  for (const math::Vec& row : data) {
    for (int j = 0; j < d; ++j) {
      const int bin = BinIndex(j, row[j]);
      GEM_DCHECK(bin >= 0);
      counts_.At(j, bin) += 1.0;
    }
    ++samples_;
    Retain(row);
  }
  return Status::Ok();
}

bool HistogramModel::Retain(const math::Vec& x) {
  if (max_retained_ <= 0 ||
      static_cast<long>(data_.rows()) < max_retained_) {
    data_.AppendRow(x);
    return false;
  }
  // Algorithm R over the stream of all samples seen: the x-th arrival
  // replaces a uniformly random reservoir slot with probability
  // max_retained / samples, so the reservoir stays a uniform sample.
  const uint64_t slot =
      reservoir_rng_.Next() % static_cast<uint64_t>(samples_);
  if (slot < static_cast<uint64_t>(max_retained_)) {
    data_.SetRow(static_cast<int>(slot), x);
  }
  EvictionCounter().Increment();
  return true;
}

void HistogramModel::Materialize() {
  counts_.Materialize();
  data_.Materialize();
}

void HistogramModel::RebuildDimension(int dim) {
  // With a bounded reservoir the retained rows stand in for all
  // samples_ observations: scale the recount so the dimension's total
  // mass stays samples_ (exactly 1.0 when retention is unlimited).
  const double scale =
      static_cast<double>(samples_) / static_cast<double>(data_.rows());
  for (int b = 0; b < bins_; ++b) counts_.At(dim, b) = 0.0;
  for (int i = 0; i < data_.rows(); ++i) {
    const int bin = BinIndex(dim, data_.At(i, dim));
    GEM_DCHECK(bin >= 0);
    counts_.At(dim, bin) += scale;
  }
}

int HistogramModel::BinIndex(int dim, double value) const {
  if (value < lo_[dim] || value > hi_[dim]) return -1;
  const double width = (hi_[dim] - lo_[dim]) / bins_;
  int bin = static_cast<int>((value - lo_[dim]) / width);
  return std::min(bin, bins_ - 1);
}

void HistogramModel::Add(const math::Vec& x) {
  GEM_CHECK(static_cast<int>(x.size()) == dimensions());
  // A view-backed model privatizes its counts/reservoir pages on the
  // first absorbed sample (no-op for owned storage).
  Materialize();
  ++samples_;
  Retain(x);
  for (int j = 0; j < dimensions(); ++j) {
    const int bin = BinIndex(j, x[j]);
    if (bin >= 0) {
      counts_.At(j, bin) += 1.0;
    } else {
      // Recalculate this dimension's histogram over the widened range
      // (Section V-B: the new embedding recalculates the histograms).
      static obs::Counter& rebuilds = obs::MetricsRegistry::Get().GetCounter(
          "gem_hbos_rebuild_total");
      rebuilds.Increment();
      lo_[j] = std::min(lo_[j], x[j]);
      hi_[j] = std::max(hi_[j], x[j]);
      RebuildDimension(j);
    }
  }
}

double HistogramModel::RawScore(const math::Vec& x) const {
  GEM_CHECK(static_cast<int>(x.size()) == dimensions());
  GEM_CHECK(samples_ > 0);
  const double denom =
      static_cast<double>(samples_) + kLaplace * bins_;
  double score = 0.0;
  for (int j = 0; j < dimensions(); ++j) {
    const int bin = BinIndex(j, x[j]);
    const double count = bin < 0 ? 0.0 : counts_.At(j, bin);
    const double p = (count + kLaplace) / denom;
    score += std::log(1.0 / p);
  }
  return score;
}

HistogramModel::PersistedState HistogramModel::ExportState() const {
  PersistedState state;
  state.bins = bins_;
  state.samples = samples_;
  state.max_retained = max_retained_;
  state.lo = lo_;
  state.hi = hi_;
  state.counts = counts_;
  state.data = data_;
  state.reservoir_rng = reservoir_rng_.SaveState();
  return state;
}

StatusOr<HistogramModel> HistogramModel::FromState(PersistedState state) {
  const int d = static_cast<int>(state.lo.size());
  if (state.bins < 1 || state.samples < 1 || d < 1) {
    return Status::InvalidArgument("histogram state: empty model");
  }
  if (state.hi.size() != state.lo.size()) {
    return Status::InvalidArgument("histogram state: lo/hi size mismatch");
  }
  if (state.counts.rows() != d || state.counts.cols() != state.bins) {
    return Status::InvalidArgument("histogram state: counts shape mismatch");
  }
  if (state.max_retained < 0 ||
      static_cast<long>(state.data.rows()) > state.samples) {
    return Status::InvalidArgument("histogram state: bad retention counts");
  }
  if (state.max_retained > 0 &&
      static_cast<long>(state.data.rows()) > state.max_retained) {
    return Status::InvalidArgument("histogram state: reservoir overflow");
  }
  if (state.data.rows() == 0) {
    return Status::InvalidArgument("histogram state: no retained samples");
  }
  if (state.data.cols() != d) {
    return Status::InvalidArgument("histogram state: data width mismatch");
  }
  HistogramModel model;
  model.bins_ = state.bins;
  model.samples_ = state.samples;
  model.max_retained_ = state.max_retained;
  model.lo_ = std::move(state.lo);
  model.hi_ = std::move(state.hi);
  model.counts_ = std::move(state.counts);
  model.data_ = std::move(state.data);
  model.reservoir_rng_.RestoreState(state.reservoir_rng);
  return model;
}

Status HbosDetector::Fit(const std::vector<math::Vec>& normal) {
  Status status =
      model_.Fit(normal, options_.bins, options_.max_retained_samples);
  if (!status.ok()) return status;

  math::Vec scores;
  scores.reserve(normal.size());
  for (const math::Vec& x : normal) scores.push_back(model_.RawScore(x));
  score_lo_ = *std::min_element(scores.begin(), scores.end());
  score_hi_ = *std::max_element(scores.begin(), scores.end());
  if (score_hi_ <= score_lo_) score_hi_ = score_lo_ + 1e-9;

  for (double& s : scores) s = Normalize(s);
  threshold_ = ContaminationThreshold(scores, options_.contamination);
  return Status::Ok();
}

double HbosDetector::Normalize(double raw) const {
  return (raw - score_lo_) / (score_hi_ - score_lo_);
}

double HbosDetector::Score(const math::Vec& x) const {
  return Normalize(model_.RawScore(x));
}

bool HbosDetector::IsOutlier(const math::Vec& x) const {
  return Score(x) > threshold_;
}

Status EnhancedHbosOptions::Validate() const {
  if (bins < 1) {
    return Status::InvalidArgument("detector: bins must be >= 1, got " +
                                   std::to_string(bins));
  }
  if (!(temperature > 0.0) || !std::isfinite(temperature)) {
    return Status::InvalidArgument(
        "detector: temperature must be positive and finite");
  }
  if (max_retained_samples < 0) {
    return Status::InvalidArgument(
        "detector: max_retained_samples must be >= 0 (0 = unlimited)");
  }
  return Status::Ok();
}

EnhancedHbosDetector::EnhancedHbosDetector(EnhancedHbosOptions options)
    : HbosDetector(
          HbosOptions{options.bins, 0.1, options.max_retained_samples}),
      enhanced_options_(options) {
  GEM_CHECK(options.temperature > 0.0);
}

Status EnhancedHbosDetector::Fit(const std::vector<math::Vec>& normal) {
  Status status = HbosDetector::Fit(normal);
  if (!status.ok()) return status;

  // Estimate the normalized-score distribution of FRESH in-premises
  // samples by k-fold cross-scoring: each contiguous fold (the data is
  // time-ordered) is scored by an HBOS model fitted on the other folds,
  // under that model's own min-max normalization. This captures the
  // generalization gap that the training scores (which are at most 1
  // by construction) cannot show, and adapts to noisy or drifting
  // environments where the gap is larger.
  const int folds =
      std::min<int>(kCalibrationFolds, static_cast<int>(normal.size()));
  const size_t n = normal.size();
  // Two fold layouts bracket the failure modes: contiguous folds
  // capture slow temporal drift (a fold is a stretch of time the other
  // folds have not seen), strided folds capture regime switching
  // (every fold model sees every regime). Each yields a tau estimate;
  // their average is robust to both.
  auto cv_tau = [&](bool contiguous, double* tau_low) {
    math::Vec cv_scores;
    cv_scores.reserve(n);
    if (folds >= 2) {
      for (int f = 0; f < folds; ++f) {
        std::vector<math::Vec> rest;
        std::vector<size_t> held;
        for (size_t i = 0; i < n; ++i) {
          const bool in_fold =
              contiguous ? (i >= n * f / folds && i < n * (f + 1) / folds)
                         : (i % folds == static_cast<size_t>(f));
          if (in_fold) {
            held.push_back(i);
          } else {
            rest.push_back(normal[i]);
          }
        }
        HbosDetector fold_model(HbosOptions{enhanced_options_.bins, 0.1});
        if (!fold_model.Fit(rest).ok()) continue;
        for (size_t i : held) {
          cv_scores.push_back(fold_model.Score(normal[i]));
        }
      }
    }
    if (cv_scores.empty()) {
      for (const math::Vec& x : normal) {
        cv_scores.push_back(NormalizedScore(x));
      }
    }
    const double p_up =
        math::Percentile(cv_scores, kCalibrationUpperPercentile);
    const double p_mid = math::Percentile(cv_scores, 50.0);
    *tau_low = math::Percentile(cv_scores, kCalibrationLowerPercentile);
    return p_up + kCalibrationSpreadFactor * (p_up - p_mid);
  };
  double low_contig = 0.0;
  double low_stride = 0.0;
  const double tau_contig = cv_tau(true, &low_contig);
  const double tau_stride = cv_tau(false, &low_stride);
  hbar_tau_upper_ = 0.5 * (tau_contig + tau_stride);
  hbar_tau_lower_ = 0.5 * (low_contig + low_stride);
  return Status::Ok();
}

EnhancedHbosDetector::PersistedState EnhancedHbosDetector::ExportState()
    const {
  PersistedState state;
  state.model = model_.ExportState();
  state.score_lo = score_lo_;
  state.score_hi = score_hi_;
  state.threshold = threshold_;
  state.hbar_tau_upper = hbar_tau_upper_;
  state.hbar_tau_lower = hbar_tau_lower_;
  return state;
}

StatusOr<EnhancedHbosDetector> EnhancedHbosDetector::FromState(
    EnhancedHbosOptions options, PersistedState state) {
  if (!(options.temperature > 0.0)) {
    return Status::InvalidArgument("detector state: invalid temperature");
  }
  if (!(state.score_hi > state.score_lo)) {
    return Status::InvalidArgument(
        "detector state: degenerate score normalization range");
  }
  StatusOr<HistogramModel> model =
      HistogramModel::FromState(std::move(state.model));
  if (!model.ok()) return model.status();
  EnhancedHbosDetector detector(options);
  detector.model_ = std::move(model).value();
  detector.score_lo_ = state.score_lo;
  detector.score_hi_ = state.score_hi;
  detector.threshold_ = state.threshold;
  detector.hbar_tau_upper_ = state.hbar_tau_upper;
  detector.hbar_tau_lower_ = state.hbar_tau_lower;
  return detector;
}

double EnhancedHbosDetector::NormalizedScore(const math::Vec& x) const {
  return Normalize(model_.RawScore(x));
}

double EnhancedHbosDetector::Score(const math::Vec& x) const {
  // Equation (10): S_T = exp(Hbar/T) / (exp(Hbar/T) + exp((1-Hbar)/T))
  //              = sigmoid((2 Hbar - 1) / T).
  const double hbar = Normalize(model_.RawScore(x));
  const double z = (2.0 * hbar - 1.0) / enhanced_options_.temperature;
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

bool EnhancedHbosDetector::IsOutlier(const math::Vec& x) const {
  // Equation (11), evaluated in Hbar space (identical decision).
  return NormalizedScore(x) > hbar_tau_upper_;
}

StatusOr<bool> EnhancedHbosDetector::MaybeUpdate(const math::Vec& x) {
  // Fitted check first: an unfitted model has no dimensionality to
  // compare against, so the precondition error takes precedence.
  if (model_.samples() < 1) {
    return Status::FailedPrecondition("detector update: model is not fitted");
  }
  if (static_cast<int>(x.size()) != model_.dimensions()) {
    return Status::InvalidArgument(
        "detector update: sample dimension " + std::to_string(x.size()) +
        " does not match the fitted model (" +
        std::to_string(model_.dimensions()) + ")");
  }
  // Section V-B self-enhancement accounting: how many confidently
  // normal embeddings the detector absorbed vs. declined.
  static obs::Counter& absorbed =
      obs::MetricsRegistry::Get().GetCounter("gem_od_absorbed_total");
  static obs::Counter& declined =
      obs::MetricsRegistry::Get().GetCounter("gem_od_declined_total");
  if (NormalizedScore(x) >= hbar_tau_lower_) {
    declined.Increment();
    return false;
  }
  absorbed.Increment();
  model_.Add(x);
  // The normalization anchors stay frozen at their initial-training
  // values: this is what makes the enhanced score independent of the
  // growing data size (Section IV-C's criticism of the original
  // threshold). Re-deriving min/max after each update would let the
  // ever-densifying core stretch the scale and push fresh samples'
  // scores upward.
  return true;
}

}  // namespace gem::detect
