// Elderly-care scenario (the paper's motivating application): a
// dementia patient wears an IoT pendant in a two-story house. The
// caregiver is alerted when the patient wanders out — but only after a
// few consecutive outside decisions, to avoid false alarms from single
// noisy scans.
//
// Demonstrates: multi-floor premises, alert debouncing on top of
// GEM's per-record decisions, and inspecting outlier scores.

#include <cstdio>
#include <deque>

#include "core/gem.h"
#include "rf/dataset.h"

using namespace gem;  // NOLINT(build/namespaces) example binary

namespace {

/// Raises an alarm only after `threshold` consecutive outside
/// decisions (a scan every few seconds makes this a ~15 s latency).
class WanderingAlarm {
 public:
  explicit WanderingAlarm(int threshold) : threshold_(threshold) {}

  /// Returns true when the alarm fires (on the transition only).
  bool Observe(core::Decision decision) {
    if (decision == core::Decision::kOutside) {
      ++streak_;
    } else {
      streak_ = 0;
      fired_ = false;
    }
    if (streak_ >= threshold_ && !fired_) {
      fired_ = true;
      return true;
    }
    return false;
  }

 private:
  int threshold_;
  int streak_ = 0;
  bool fired_ = false;
};

}  // namespace

int main() {
  // The ~200 m^2 two-story house preset (Table II user 10).
  rf::DatasetOptions options;
  options.seed = 11;
  const rf::Dataset data =
      rf::GenerateScenarioDataset(rf::HomePreset(9), options);

  core::Gem gem{core::GemConfig{}};
  if (!gem.Train(data.train).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  std::printf("GEM trained on %zu records from the initial walk.\n\n",
              data.train.size());

  // The model stays read-only; the stream's graph growth and
  // self-enhancement accumulate in this overlay.
  core::GemOverlay overlay;
  WanderingAlarm alarm(/*threshold=*/5);
  int alarms = 0;
  int true_outside_events = 0;
  bool was_outside = false;
  for (size_t i = 0; i < data.test.size(); ++i) {
    const rf::ScanRecord& record = data.test[i];
    const core::InferenceResult result = gem.Infer(record, overlay);
    if (!record.inside && !was_outside) ++true_outside_events;
    was_outside = !record.inside;

    if (alarm.Observe(result.decision)) {
      ++alarms;
      std::printf("ALERT at t=%.0fs: patient appears OUTSIDE "
                  "(score %.2f, truly %s)\n",
                  record.timestamp_s, result.score,
                  record.inside ? "inside" : "outside");
    }
  }
  std::printf("\n%d alarm(s) raised across %d true outside excursions.\n",
              alarms, true_outside_events);
  return 0;
}
