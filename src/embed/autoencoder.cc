#include "embed/autoencoder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/check.h"
#include "math/flat_tape.h"
#include "math/kernels.h"
#include "math/optimizer.h"
#include "math/rng.h"
#include "math/vec.h"

namespace gem::embed {

AutoencoderEmbedder::AutoencoderEmbedder(AutoencoderConfig config)
    : config_(config) {}

Status AutoencoderEmbedder::Fit(const std::vector<rf::ScanRecord>& train) {
  if (train.empty()) {
    return Status::InvalidArgument("no training records");
  }
  vocab_.Build(train);
  const int in = vocab_.size();
  if (in == 0) {
    return Status::InvalidArgument("training records contain no MACs");
  }
  const int hidden = config_.hidden;
  const int code = config_.bottleneck;

  math::Rng rng(config_.seed);
  w1_ = std::make_unique<math::Parameter>(hidden, in);
  w2_ = std::make_unique<math::Parameter>(code, hidden);
  w3_ = std::make_unique<math::Parameter>(hidden, code);
  w4_ = std::make_unique<math::Parameter>(in, hidden);
  w1_->value.FillGlorot(rng);
  w2_->value.FillGlorot(rng);
  w3_->value.FillGlorot(rng);
  w4_->value.FillGlorot(rng);

  math::Adam adam(config_.learning_rate);
  adam.Register(w1_.get());
  adam.Register(w2_.get());
  adam.Register(w3_.get());
  adam.Register(w4_.get());

  std::vector<math::Vec> inputs;
  inputs.reserve(train.size());
  for (const rf::ScanRecord& record : train) {
    inputs.push_back(vocab_.ToDenseNormalized(record, config_.pad_dbm));
  }

  std::vector<int> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);

  math::FlatTape tape;
  math::ParamGradSink grads;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;  // sum of batch-mean losses
    int batches = 0;
    size_t index = 0;
    while (index < order.size()) {
      ++batches;
      tape.Clear();
      const size_t end = std::min(
          order.size(), index + static_cast<size_t>(config_.batch_size));
      const double inv_batch = 1.0 / static_cast<double>(end - index);
      for (; index < end; ++index) {
        const math::Vec& x = inputs[order[index]];
        const math::VarId xi = tape.Leaf(x);
        const math::VarId h1 = tape.Relu(tape.MatVec(w1_.get(), xi));
        const math::VarId z = tape.Tanh(tape.MatVec(w2_.get(), h1));
        const math::VarId h2 = tape.Relu(tape.MatVec(w3_.get(), z));
        const math::VarId out = tape.MatVec(w4_.get(), h2);
        epoch_loss += tape.AddMseLoss(out, x, inv_batch);
      }
      tape.Backward(grads);
      adam.Step(grads);
      grads.ZeroAll();
    }
    final_loss_ = epoch_loss / batches;
  }
  trained_ = true;

  train_codes_.clear();
  train_codes_.reserve(inputs.size());
  for (const math::Vec& x : inputs) train_codes_.push_back(Encode(x));
  num_train_ = static_cast<int>(train.size());
  return Status::Ok();
}

math::Vec AutoencoderEmbedder::Encode(const math::Vec& input) const {
  GEM_CHECK(trained_);
  math::Vec h1 = w1_->value.MatVec(input);
  math::kernels::Active().relu(h1.data(), h1.data(), h1.size());
  math::Vec z = w2_->value.MatVec(h1);
  for (double& v : z) v = std::tanh(v);
  return z;
}

math::Vec AutoencoderEmbedder::TrainEmbedding(int i) const {
  GEM_CHECK(i >= 0 && i < num_train_);
  return train_codes_[i];
}

StatusOr<math::Vec> AutoencoderEmbedder::EmbedNew(
    const rf::ScanRecord& record) {
  if (!trained_) {
    return Status::FailedPrecondition("embedder is not trained");
  }
  if (vocab_.CountKnownMacs(record) == 0) {
    return Status::NotFound("record shares no MAC with the vocabulary");
  }
  return Encode(vocab_.ToDenseNormalized(record, config_.pad_dbm));
}

}  // namespace gem::embed
