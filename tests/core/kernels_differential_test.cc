// Scalar-vs-AVX2 differential over the full inference path: train one
// model (under the scalar backend, so the weights are a fixed
// reference), then recompute training-node embeddings and detector
// scores under each kernel backend and bound the drift.
//
// The two backends are NOT bit-exact by contract — AVX2 reassociates
// reductions into fixed lane order and FMA rounds once — but for the
// shallow BiSAGE forward pass the accumulated drift must stay below
// 1e-9 per embedding component and per score (observed: a few ULPs).
// Training is done once, not per backend: comparing two independently
// trained models would amplify ULP drift through epochs of SGD and
// measure nothing useful.
//
// The comparison is per layer, not end-to-end: HBOS scores are a step
// function of the embedding (histogram bin lookups), so a 1-ULP
// embedding drift that lands exactly on a bin edge legitimately moves
// the score by a whole bin's log-density. Scoring is therefore
// differentialed on the SAME embedding under each backend, which pins
// the bins and exposes only the detector's own kernel usage.

#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "math/kernels.h"
#include "rf/dataset.h"

namespace gem::core {
namespace {

namespace kernels = math::kernels;

constexpr double kTolerance = 1e-9;

GemConfig DifferentialConfig() {
  GemConfig config;
  config.bisage.dimension = 16;
  config.bisage.epochs = 2;
  config.bisage.seed = 5;
  config.bisage.num_threads = 1;
  return config;
}

TEST(KernelsDifferentialTest, EmbeddingsAndScoresAgreeAcrossBackends) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "no AVX2+FMA on this CPU — nothing to differentiate";
  }
  const kernels::Backend original =
      kernels::ForceBackendForTest(kernels::Backend::kScalar);

  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 45.0;
  options.seed = 77;
  const rf::Dataset data =
      rf::GenerateScenarioDataset(rf::HomePreset(3), options);

  Gem gem(DifferentialConfig());
  ASSERT_TRUE(gem.Train(data.train).ok());
  const GemOverlay overlay;  // nothing is offered: the base detector scores

  const int num_nodes =
      std::min<int>(48, static_cast<int>(data.train.size()));
  ASSERT_GT(num_nodes, 0);
  double max_component_drift = 0.0;
  double max_score_drift = 0.0;
  for (int i = 0; i < num_nodes; ++i) {
    // Layer 1: the tape-free forward pass, whole pipeline's hot path.
    kernels::ForceBackendForTest(kernels::Backend::kScalar);
    const math::Vec scalar_embedding = gem.embedder().TrainEmbedding(i);
    kernels::ForceBackendForTest(kernels::Backend::kAvx2);
    const math::Vec avx2_embedding = gem.embedder().TrainEmbedding(i);

    ASSERT_EQ(scalar_embedding.size(), avx2_embedding.size());
    for (size_t d = 0; d < scalar_embedding.size(); ++d) {
      const double drift =
          std::abs(scalar_embedding[d] - avx2_embedding[d]);
      max_component_drift = std::max(max_component_drift, drift);
      EXPECT_LE(drift, kTolerance)
          << "node " << i << " component " << d << ": "
          << scalar_embedding[d] << " vs " << avx2_embedding[d];
    }

    // Layer 2: detection, scored on ONE embedding so both backends see
    // identical histogram bins (see header comment).
    kernels::ForceBackendForTest(kernels::Backend::kScalar);
    const InferenceResult scalar_result =
        gem.Detect(scalar_embedding, overlay);
    kernels::ForceBackendForTest(kernels::Backend::kAvx2);
    const InferenceResult avx2_result = gem.Detect(scalar_embedding, overlay);
    const double score_drift =
        std::abs(scalar_result.score - avx2_result.score);
    max_score_drift = std::max(max_score_drift, score_drift);
    EXPECT_LE(score_drift, kTolerance) << "node " << i;
    EXPECT_EQ(scalar_result.decision, avx2_result.decision) << "node " << i;
  }
  kernels::ForceBackendForTest(original);

  RecordProperty("max_component_drift", std::to_string(max_component_drift));
  RecordProperty("max_score_drift", std::to_string(max_score_drift));
}

}  // namespace
}  // namespace gem::core
