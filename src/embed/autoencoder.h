#ifndef GEM_EMBED_AUTOENCODER_H_
#define GEM_EMBED_AUTOENCODER_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "embed/embedder.h"
#include "embed/matrix_rep.h"
#include "math/autograd.h"

namespace gem::embed {

/// Autoencoder baseline hyperparameters. The paper's best autoencoder
/// used four 1-D convolution layers; with the small padded-vector
/// inputs here an MLP with the same bottleneck dimension is the
/// equivalent substitution (documented in DESIGN.md).
struct AutoencoderConfig {
  int hidden = 64;
  int bottleneck = 32;
  int epochs = 60;
  double learning_rate = 0.003;
  int batch_size = 16;
  double pad_dbm = -120.0;
  uint64_t seed = 23;
};

/// "Autoencoder + OD" baseline of Table I: learns a low-dimensional
/// code of the padded matrix representation by reconstruction (MSE),
/// then the code is fed to the outlier detector. Inherits the
/// missing-value padding problem the paper highlights.
class AutoencoderEmbedder : public RecordEmbedder {
 public:
  explicit AutoencoderEmbedder(AutoencoderConfig config = {});

  Status Fit(const std::vector<rf::ScanRecord>& train) override;
  math::Vec TrainEmbedding(int i) const override;
  int num_train() const override { return num_train_; }
  StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record) override;
  int dimension() const override { return config_.bottleneck; }

  /// Mean reconstruction loss of the final epoch (diagnostic).
  double final_loss() const { return final_loss_; }

 private:
  /// Bottleneck code of an input vector (encoder forward pass).
  math::Vec Encode(const math::Vec& input) const;

  AutoencoderConfig config_;
  MacVocabulary vocab_;
  // Encoder: in -> hidden -> bottleneck (ReLU, tanh code). Decoder:
  // bottleneck -> hidden -> in (ReLU, linear output). Bias-free layers:
  // inputs are normalized to [0, 1] so the model reconstructs well
  // without them.
  std::unique_ptr<math::Parameter> w1_, w2_, w3_, w4_;
  std::vector<math::Vec> train_codes_;
  int num_train_ = 0;
  double final_loss_ = 0.0;
  bool trained_ = false;
};

}  // namespace gem::embed

#endif  // GEM_EMBED_AUTOENCODER_H_
