// Table-driven rejection tests for the Validate() surface introduced
// with the StatusOr migration: every invalid knob must come back as
// kInvalidArgument (never a crash), and defaults must validate clean.
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "core/gem.h"
#include "detect/hbos.h"
#include "embed/bisage.h"
#include "serve/engine.h"
#include "store/fence_cache.h"

namespace gem {
namespace {

template <typename Config>
struct RejectionCase {
  std::string name;
  std::function<void(Config&)> mutate;
};

template <typename Config>
void RunRejectionTable(const std::vector<RejectionCase<Config>>& cases) {
  ASSERT_TRUE(Config{}.Validate().ok()) << "defaults must validate";
  for (const RejectionCase<Config>& c : cases) {
    Config config;
    c.mutate(config);
    const Status status = config.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_FALSE(status.message().empty()) << c.name;
  }
}

TEST(ConfigValidateTest, BiSageConfigRejections) {
  using Config = embed::BiSageConfig;
  RunRejectionTable<Config>({
      {"zero dimension", [](Config& c) { c.dimension = 0; }},
      {"negative dimension", [](Config& c) { c.dimension = -4; }},
      {"zero layers", [](Config& c) { c.num_layers = 0; }},
      {"fanouts size mismatch", [](Config& c) { c.fanouts = {5}; }},
      {"non-positive fanout", [](Config& c) { c.fanouts = {6, 0}; }},
      {"zero walks per node", [](Config& c) { c.walks_per_node = 0; }},
      {"zero walk length", [](Config& c) { c.walk_length = 0; }},
      {"zero epochs", [](Config& c) { c.epochs = 0; }},
      {"negative negatives", [](Config& c) { c.num_negatives = -1; }},
      {"zero learning rate", [](Config& c) { c.learning_rate = 0.0; }},
      {"nan learning rate",
       [](Config& c) { c.learning_rate = std::nan(""); }},
      {"zero batch pairs", [](Config& c) { c.batch_pairs = 0; }},
      {"zero min mac degree", [](Config& c) { c.min_mac_degree = 0; }},
      {"zero threads", [](Config& c) { c.num_threads = 0; }},
      {"too many threads",
       [](Config& c) { c.num_threads = ThreadPoolOptions::kMaxThreads + 1; }},
  });
}

TEST(ConfigValidateTest, EnhancedHbosOptionsRejections) {
  using Config = detect::EnhancedHbosOptions;
  RunRejectionTable<Config>({
      {"zero bins", [](Config& c) { c.bins = 0; }},
      {"zero temperature", [](Config& c) { c.temperature = 0.0; }},
      {"infinite temperature",
       [](Config& c) { c.temperature = std::numeric_limits<double>::infinity(); }},
      {"negative retained samples",
       [](Config& c) { c.max_retained_samples = -1; }},
  });
}

TEST(ConfigValidateTest, ThreadPoolOptionsRejections) {
  using Config = ThreadPoolOptions;
  RunRejectionTable<Config>({
      {"zero threads", [](Config& c) { c.num_threads = 0; }},
      {"negative threads", [](Config& c) { c.num_threads = -1; }},
      {"too many threads",
       [](Config& c) { c.num_threads = Config::kMaxThreads + 1; }},
  });
}

TEST(ConfigValidateTest, EngineOptionsRejections) {
  using Config = serve::EngineOptions;
  RunRejectionTable<Config>({
      {"zero threads", [](Config& c) { c.num_threads = 0; }},
      {"zero queue depth", [](Config& c) { c.max_queue_depth = 0; }},
  });
}

TEST(ConfigValidateTest, GemConfigPropagatesNestedErrors) {
  using Config = core::GemConfig;
  RunRejectionTable<Config>({
      {"bad bisage", [](Config& c) { c.bisage.dimension = 0; }},
      {"bad bisage threads", [](Config& c) { c.bisage.num_threads = -2; }},
      {"bad detector", [](Config& c) { c.detector.bins = 0; }},
  });
}

TEST(ConfigValidateTest, TrainRefusesInvalidConfig) {
  core::GemConfig config;
  config.bisage.num_threads = 0;
  core::Gem gem(config);
  const Status status = gem.Train({rf::ScanRecord{}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// A zero-capacity cache would keep nothing resident and reload (under
// a new generation) on every Acquire, so the constructor refuses it.
TEST(ConfigValidateTest, FenceCacheRefusesInvalidOptions) {
  store::FenceCacheOptions options;
  options.capacity = 0;
  EXPECT_DEATH(store::FenceCache cache(options), "Validate");
}

}  // namespace
}  // namespace gem
