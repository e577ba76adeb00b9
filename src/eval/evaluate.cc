#include "eval/evaluate.h"

#include <chrono>

#include "base/check.h"

namespace gem::eval {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

StatusOr<EvalResult> Evaluate(core::GeofencingSystem& system,
                              const rf::Dataset& data) {
  EvalResult result;
  const auto t0 = Clock::now();
  Status status = system.Train(data.train);
  if (!status.ok()) return status;
  const auto t1 = Clock::now();
  result.train_seconds = Seconds(t0, t1);

  std::vector<bool> actual;
  std::vector<bool> predicted;
  actual.reserve(data.test.size());
  predicted.reserve(data.test.size());
  for (const rf::ScanRecord& record : data.test) {
    const core::InferenceResult inference = system.Infer(record);
    actual.push_back(record.inside);
    predicted.push_back(inference.decision == core::Decision::kInside);
    result.scores.push_back(inference.score);
    result.is_outside.push_back(!record.inside);
    result.predicted_inside.push_back(
        inference.decision == core::Decision::kInside);
    result.updates += inference.model_updated ? 1 : 0;
  }
  result.infer_seconds = Seconds(t1, Clock::now());
  result.metrics = math::ComputeInOutMetrics(actual, predicted);
  return result;
}

AggregateMetrics Aggregate(const std::vector<math::InOutMetrics>& runs) {
  GEM_CHECK(!runs.empty());
  math::Vec p_in, r_in, f_in, p_out, r_out, f_out;
  for (const math::InOutMetrics& m : runs) {
    p_in.push_back(m.precision_in);
    r_in.push_back(m.recall_in);
    f_in.push_back(m.f_in);
    p_out.push_back(m.precision_out);
    r_out.push_back(m.recall_out);
    f_out.push_back(m.f_out);
  }
  AggregateMetrics out;
  out.p_in = math::Summarize(p_in);
  out.r_in = math::Summarize(r_in);
  out.f_in = math::Summarize(f_in);
  out.p_out = math::Summarize(p_out);
  out.r_out = math::Summarize(r_out);
  out.f_out = math::Summarize(f_out);
  return out;
}

}  // namespace gem::eval
