#ifndef GEM_MATH_OPTIMIZER_H_
#define GEM_MATH_OPTIMIZER_H_

#include <span>
#include <vector>

#include "math/autograd.h"
#include "math/matrix.h"

namespace gem::math {

/// Adam over dense Parameters (beta1 = 0.9, beta2 = 0.999, epsilon =
/// 1e-8). Register every Parameter once. An update reads the sum of 1
/// to kMaxSinks gradient sinks and may be split into parts that run
/// concurrently: StartStep() once, then StepPart() for every part.
class Adam {
 public:
  /// Most sinks one update folds (BiSAGE's shards per wave).
  static constexpr int kMaxSinks = 4;

  /// The paper's learning rate of 0.003 is plumbed through model
  /// configs.
  explicit Adam(double learning_rate) : learning_rate_(learning_rate) {}

  /// Registers a parameter; the pointer must outlive the optimizer.
  void Register(Parameter* param);

  /// One whole update from one sink (zero for an untouched entry):
  /// StartStep(), then the single part of StepPart({&grads}, 0, 1).
  /// The caller zeroes the sink before it accumulates the next step.
  void Step(const ParamGradSink& grads);

  /// Starts the next update: advances the step count and computes its
  /// bias corrections. Every StepPart of the update must start after
  /// this returns.
  void StartStep();

  /// Applies part `part` of `num_parts` of the update StartStep()
  /// started: for each registered parameter, the elements in
  /// StaticChunkRange(size, num_parts, part). Each element's gradient
  /// is the sum of `sinks`, folded with stride doubling ((s0 + s1) +
  /// (s2 + s3) for four), an untouched entry reading as +0.0. So the
  /// bits do not depend on `num_parts`. Calls for different parts of
  /// one update may run concurrently; the sinks are only read.
  void StepPart(std::span<const ParamGradSink* const> sinks, int part,
                int num_parts);

  /// The first and second moment estimates of a registered parameter.
  const Matrix& first_moment(const Parameter* param) const;
  const Matrix& second_moment(const Parameter* param) const;

 private:
  struct Slot {
    Parameter* param;
    Matrix m;
    Matrix v;
  };

  double learning_rate_;
  std::vector<Slot> slots_;
  long step_ = 0;
  double bias_correction1_ = 0.0;
  double bias_correction2_ = 0.0;

  const Slot& SlotFor(const Parameter* param) const;
};

}  // namespace gem::math

#endif  // GEM_MATH_OPTIMIZER_H_
