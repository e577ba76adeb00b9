#include "eval/systems.h"

#include "base/check.h"
#include "core/embedding_pipeline.h"
#include "core/inoa.h"
#include "core/signature_home.h"
#include "detect/feature_bagging.h"
#include "detect/iforest.h"
#include "detect/lof.h"
#include "embed/autoencoder.h"
#include "embed/bisage.h"
#include "embed/graphsage.h"
#include "embed/matrix_rep.h"
#include "embed/mds.h"

namespace gem::eval {
namespace {

/// GEM as a streaming GeofencingSystem: the read-only model plus the
/// overlay its record stream accumulates.
class GemSystem : public core::GeofencingSystem {
 public:
  explicit GemSystem(const core::GemConfig& config) : gem_(config) {}

  /// A retrain starts over from a fresh model (Gem::Train runs once
  /// per Gem) and a fresh overlay (the old one was built over the
  /// previous base).
  Status Train(const std::vector<rf::ScanRecord>& inside_records) override {
    gem_ = core::Gem(gem_.config());
    overlay_ = core::GemOverlay();
    return gem_.Train(inside_records);
  }
  core::InferenceResult Infer(const rf::ScanRecord& record) override {
    return gem_.Infer(record, overlay_);
  }
  std::string name() const override {
    return AlgorithmName(AlgorithmId::kGem);
  }

 private:
  core::Gem gem_;
  core::GemOverlay overlay_;
};

}  // namespace

std::vector<AlgorithmId> TableOneAlgorithms() {
  return {AlgorithmId::kGem,
          AlgorithmId::kSignatureHome,
          AlgorithmId::kInoa,
          AlgorithmId::kGraphSageOd,
          AlgorithmId::kAutoencoderOd,
          AlgorithmId::kMdsOd,
          AlgorithmId::kBiSageFeatureBagging,
          AlgorithmId::kBiSageIForest,
          AlgorithmId::kBiSageLof};
}

std::string AlgorithmName(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kGem:
      return "GEM (BiSAGE + OD)";
    case AlgorithmId::kSignatureHome:
      return "SignatureHome";
    case AlgorithmId::kInoa:
      return "INOA";
    case AlgorithmId::kGraphSageOd:
      return "GraphSAGE + OD";
    case AlgorithmId::kAutoencoderOd:
      return "Autoencoder + OD";
    case AlgorithmId::kMdsOd:
      return "MDS + OD";
    case AlgorithmId::kBiSageFeatureBagging:
      return "BiSAGE + Feature bagging";
    case AlgorithmId::kBiSageIForest:
      return "BiSAGE + iForest";
    case AlgorithmId::kBiSageLof:
      return "BiSAGE + LOF";
    case AlgorithmId::kRawOd:
      return "Matrix (w/o BiSAGE) + OD";
  }
  return "unknown";
}

std::unique_ptr<core::GeofencingSystem> MakeSystem(
    AlgorithmId id, uint64_t seed, const core::GemConfig& gem_config) {
  embed::BiSageConfig bisage = gem_config.bisage;
  bisage.seed ^= seed;
  detect::EnhancedHbosOptions od = gem_config.detector;

  switch (id) {
    case AlgorithmId::kGem: {
      core::GemConfig config = gem_config;
      config.bisage = bisage;
      return std::make_unique<GemSystem>(config);
    }
    case AlgorithmId::kSignatureHome:
      return std::make_unique<core::SignatureHome>();
    case AlgorithmId::kInoa:
      return std::make_unique<core::Inoa>();
    case AlgorithmId::kGraphSageOd: {
      embed::GraphSageConfig config;
      config.dimension = bisage.dimension;
      config.seed = 17 ^ seed;
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id),
          std::make_unique<embed::GraphSageEmbedder>(config,
                                                     gem_config.edge_weight),
          std::make_unique<detect::EnhancedHbosDetector>(od));
    }
    case AlgorithmId::kAutoencoderOd: {
      embed::AutoencoderConfig config;
      config.bottleneck = bisage.dimension;
      config.seed = 23 ^ seed;
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id),
          std::make_unique<embed::AutoencoderEmbedder>(config),
          std::make_unique<detect::EnhancedHbosDetector>(od));
    }
    case AlgorithmId::kMdsOd: {
      embed::MdsConfig config;
      config.components = bisage.dimension;
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id), std::make_unique<embed::MdsEmbedder>(config),
          std::make_unique<detect::EnhancedHbosDetector>(od));
    }
    case AlgorithmId::kBiSageFeatureBagging: {
      detect::FeatureBaggingOptions options;
      options.seed = 37 ^ seed;
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id),
          std::make_unique<embed::BiSageEmbedder>(bisage,
                                                  gem_config.edge_weight),
          std::make_unique<detect::FeatureBagging>(options));
    }
    case AlgorithmId::kBiSageIForest: {
      detect::IForestOptions options;
      options.seed = 31 ^ seed;
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id),
          std::make_unique<embed::BiSageEmbedder>(bisage,
                                                  gem_config.edge_weight),
          std::make_unique<detect::IsolationForest>(options));
    }
    case AlgorithmId::kBiSageLof:
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id),
          std::make_unique<embed::BiSageEmbedder>(bisage,
                                                  gem_config.edge_weight),
          std::make_unique<detect::LofDetector>());
    case AlgorithmId::kRawOd:
      return std::make_unique<core::EmbeddingPipeline>(
          AlgorithmName(id), std::make_unique<embed::RawVectorEmbedder>(),
          std::make_unique<detect::EnhancedHbosDetector>(od));
  }
  GEM_CHECK_MSG(false, "unhandled algorithm id");
  return nullptr;
}

}  // namespace gem::eval
