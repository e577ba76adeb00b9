// Lab / office monitoring through a working day: the environment is
// busy (crowds, transient devices, RSS drift), and GEM's online
// self-enhancement keeps the model current from morning to night.
//
// Demonstrates: time-of-day environment dynamics, running one model
// across changing conditions, and tracking how many samples the
// self-enhancement absorbs.

#include <cstdio>

#include "core/gem.h"
#include "rf/dataset.h"
#include "rf/scanner.h"

using namespace gem;  // NOLINT(build/namespaces) example binary

int main() {
  const rf::ScenarioConfig lab = rf::LabPreset();
  const rf::Environment env = rf::BuildEnvironment(lab);
  const rf::PropagationModel model(&env, rf::PropagationConfig{});
  math::Rng rng(2024);

  // Morning training walk at 11 AM.
  rf::Scanner scanner(&env, &model);
  scanner.SetTimeOfDayProfile(rf::ProfileAt11Am());
  std::vector<rf::ScanRecord> train;
  for (const rf::TimedPoint& tp : rf::PerimeterWalk(env, 0.8, 480.0, 2.0)) {
    train.push_back(
        scanner.Scan(tp.position, tp.floor, 11 * 3600 + tp.time_s, rng));
  }

  core::Gem gem{core::GemConfig{}};
  if (!gem.Train(train).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  std::printf("trained at 11 AM on %zu records.\n\n", train.size());

  // Run through the day: late morning, busy afternoon, quiet evening.
  // Unlabeled "life happens" phases keep the model adapting between
  // the scored check-ins — the model sees the day change gradually,
  // just like a real deployment. What it learns lands in `overlay`;
  // the trained model itself stays read-only.
  core::GemOverlay overlay;
  const struct {
    const char* label;
    rf::TimeOfDayProfile profile;
    double start_s;
    bool scored;
  } phases[] = {
      {"midday (11:30)", rf::ProfileAt11Am(), 11.5 * 3600, true},
      {"early afternoon (14:00)", rf::ProfileAt11Am(), 14.0 * 3600, false},
      {"busy afternoon (16:00)", rf::ProfileAt4Pm(), 16.0 * 3600, true},
      {"early evening (18:30)", rf::ProfileAt4Pm(), 18.5 * 3600, false},
      {"quiet evening (21:00)", rf::ProfileAt9Pm(), 21.0 * 3600, true},
  };
  for (const auto& phase : phases) {
    scanner.SetTimeOfDayProfile(phase.profile);
    int correct = 0;
    int total = 0;
    int updates = 0;
    // Half the walks stay inside the lab, half wander the corridor.
    for (int walk = 0; walk < 20; ++walk) {
      rf::Trajectory traj =
          walk % 2 == 0
              ? rf::RandomWaypointInside(env, 0.8, 45.0, 3.0, rng)
              : rf::OutsideWalk(env, 0.5, 10.0, 0.8, 45.0, 3.0, rng);
      for (const rf::TimedPoint& tp : traj) {
        const rf::ScanRecord record = scanner.Scan(
            tp.position, tp.floor, phase.start_s + tp.time_s, rng);
        const core::InferenceResult result = gem.Infer(record, overlay);
        correct += (result.decision == core::Decision::kInside) ==
                           record.inside
                       ? 1
                       : 0;
        updates += result.model_updated ? 1 : 0;
        ++total;
      }
    }
    if (phase.scored) {
      std::printf("%-24s accuracy %.1f%%  (self-enhancement absorbed %d "
                  "of %d records)\n",
                  phase.label, 100.0 * correct / total, updates, total);
    }
  }
  std::printf("\nThe model keeps working through the busy afternoon "
              "because confident in-premises samples keep refreshing "
              "its histograms.\n");
  return 0;
}
