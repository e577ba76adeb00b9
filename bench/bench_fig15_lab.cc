// Reproduces Figure 15: the lab experiments of Section VI-D —
// (b) performance at 11 AM / 4 PM / 9 PM with training data collected
//     at 11 AM; the model lives through the whole day, so its online
//     updates track the gradual environmental change,
// (c) performance vs the walking speed of the initial training walk,
// (d) performance vs available frequency bands (2.4 / 5 / both).

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/gem.h"
#include "eval/csv.h"
#include "eval/evaluate.h"
#include "eval/systems.h"
#include "eval/table.h"
#include "rf/dataset.h"
#include "rf/dynamics.h"

namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

/// Piecewise-linear interpolation of the lab profile across the day:
/// anchors at 11 AM, 4 PM and 9 PM (Table IV's time slots).
rf::TimeOfDayProfile ProfileAtHour(double hour) {
  const rf::TimeOfDayProfile a = rf::ProfileAt11Am();
  const rf::TimeOfDayProfile b = rf::ProfileAt4Pm();
  const rf::TimeOfDayProfile c = rf::ProfileAt9Pm();
  auto lerp = [](const rf::TimeOfDayProfile& x,
                 const rf::TimeOfDayProfile& y, double t) {
    rf::TimeOfDayProfile out;
    out.mean_offset_db = x.mean_offset_db * (1 - t) + y.mean_offset_db * t;
    out.extra_noise_sigma_db =
        x.extra_noise_sigma_db * (1 - t) + y.extra_noise_sigma_db * t;
    out.transient_macs_per_scan =
        x.transient_macs_per_scan * (1 - t) + y.transient_macs_per_scan * t;
    out.dropout_probability =
        x.dropout_probability * (1 - t) + y.dropout_probability * t;
    out.transient_pool_size = static_cast<int>(
        x.transient_pool_size * (1 - t) + y.transient_pool_size * t);
    return out;
  };
  if (hour <= 11.0) return a;
  if (hour <= 16.0) return lerp(a, b, (hour - 11.0) / 5.0);
  if (hour <= 21.0) return lerp(b, c, (hour - 16.0) / 5.0);
  return c;
}

/// A short in/out walk block at the given hour; returns labeled
/// records.
std::vector<rf::ScanRecord> WalkBlock(const rf::Environment& env,
                                      const rf::PropagationModel& model,
                                      double hour, int walks,
                                      math::Rng& rng) {
  rf::Scanner scanner(&env, &model);
  scanner.SetTimeOfDayProfile(ProfileAtHour(hour));
  std::vector<rf::ScanRecord> stream;
  const double start_s = hour * 3600.0;
  for (int walk = 0; walk < walks; ++walk) {
    rf::Trajectory traj;
    if (walk % 2 == 0) {
      traj = rf::RandomWaypointInside(env, 0.8, 30.0, 3.0, rng);
    } else {
      traj = rf::OutsideWalk(env, 0.5, 12.0, 0.8, 30.0, 3.0, rng);
    }
    for (const rf::TimedPoint& tp : traj) {
      stream.push_back(scanner.Scan(tp.position, tp.floor,
                                    start_s + walk * 30.0 + tp.time_s, rng));
    }
  }
  return stream;
}

std::vector<rf::ScanRecord> TrainRecords(const rf::Environment& env,
                                         const rf::PropagationModel& model,
                                         double speed, uint64_t seed) {
  math::Rng rng(seed);
  rf::Scanner scanner(&env, &model);
  scanner.SetTimeOfDayProfile(rf::ProfileAt11Am());
  std::vector<rf::ScanRecord> records;
  const rf::Trajectory walk = rf::PerimeterWalk(env, speed, 480.0, 2.0);
  for (const rf::TimedPoint& tp : walk) {
    records.push_back(
        scanner.Scan(tp.position, tp.floor, 11 * 3600.0 + tp.time_s, rng));
  }
  return records;
}

math::InOutMetrics EvaluateStream(const core::Gem& gem,
                                  core::GemOverlay& overlay,
                                  const std::vector<rf::ScanRecord>& stream) {
  std::vector<bool> actual, predicted;
  for (const rf::ScanRecord& record : stream) {
    actual.push_back(record.inside);
    predicted.push_back(gem.Infer(record, overlay).decision ==
                        core::Decision::kInside);
  }
  return math::ComputeInOutMetrics(actual, predicted);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string csv_dir = eval::CsvDirFromArgs(argc, argv);
  std::unique_ptr<eval::CsvWriter> csv;
  if (!csv_dir.empty()) {
    csv = std::make_unique<eval::CsvWriter>(csv_dir + "/fig15.csv");
    csv->WriteHeader({"panel", "setting", "f_in", "f_out"});
  }
  constexpr int kSeeds = 3;

  const rf::ScenarioConfig lab = rf::LabPreset();
  const rf::Environment env = rf::BuildEnvironment(lab);
  const rf::PropagationModel model(&env, rf::PropagationConfig{});

  std::printf("=== Figure 15(b): time-of-day (train at 11 AM, live all "
              "day) ===\n\n");
  {
    eval::TextTable table({"Time", "F_in", "F_out"});
    math::Vec f_in[3], f_out[3];
    for (int seed = 0; seed < kSeeds; ++seed) {
      core::Gem gem{core::GemConfig{}};
      if (!gem.Train(TrainRecords(env, model, 0.8, 1 + seed)).ok()) continue;
      core::GemOverlay overlay;
      math::Rng rng(100 + seed);
      int slot_index = 0;
      // Live through the day: evaluate 50 walks at the three slots and
      // keep the model running (updates on) through intermediate
      // hours.
      for (double hour = 11.2; hour <= 21.01; hour += 0.5) {
        const bool is_slot = std::fabs(hour - 11.2) < 0.01 ||
                             std::fabs(hour - 16.2) < 0.01 ||
                             std::fabs(hour - 20.7) < 0.01;
        if (is_slot) {
          const auto stream = WalkBlock(env, model, hour, 50, rng);
          const math::InOutMetrics m = EvaluateStream(gem, overlay, stream);
          f_in[slot_index].push_back(m.f_in);
          f_out[slot_index].push_back(m.f_out);
          ++slot_index;
          std::fprintf(stderr, "  [fig15b] seed %d slot %.1fh done\n", seed,
                       hour);
        } else {
          // Background life between slots: a few in/out walks the
          // model keeps learning from.
          const auto stream = WalkBlock(env, model, hour, 6, rng);
          for (const rf::ScanRecord& record : stream) {
            (void)gem.Infer(record, overlay);
          }
        }
      }
    }
    const char* names[3] = {"11 AM", "4 PM", "9 PM"};
    for (int s = 0; s < 3; ++s) {
      if (f_in[s].empty()) continue;
      table.AddRow({names[s], eval::FormatValue(math::Mean(f_in[s])),
                    eval::FormatValue(math::Mean(f_out[s]))});
      if (csv) {
        csv->WriteRow({"b", names[s],
                       eval::FormatValue(math::Mean(f_in[s])),
                       eval::FormatValue(math::Mean(f_out[s]))});
      }
    }
    table.Print();
  }

  std::printf("\n=== Figure 15(c): training walking speed ===\n\n");
  {
    eval::TextTable table({"Speed (m/s)", "F_in", "F_out"});
    for (double speed : {0.4, 0.8, 1.2}) {
      math::Vec f_in, f_out;
      for (int seed = 0; seed < kSeeds; ++seed) {
        core::Gem gem{core::GemConfig{}};
        if (!gem.Train(TrainRecords(env, model, speed, 20 + seed)).ok()) {
          continue;
        }
        math::Rng rng(200 + seed);
        const auto stream = WalkBlock(env, model, 11.2, 50, rng);
        core::GemOverlay overlay;
        const math::InOutMetrics m = EvaluateStream(gem, overlay, stream);
        f_in.push_back(m.f_in);
        f_out.push_back(m.f_out);
      }
      table.AddRow({eval::FormatValue(speed),
                    eval::FormatValue(math::Mean(f_in)),
                    eval::FormatValue(math::Mean(f_out))});
      if (csv) {
        csv->WriteRow({"c", eval::FormatValue(speed),
                       eval::FormatValue(math::Mean(f_in)),
                       eval::FormatValue(math::Mean(f_out))});
      }
      std::fprintf(stderr, "  [fig15c] speed %.1f done\n", speed);
    }
    table.Print();
  }

  std::printf("\n=== Figure 15(d): frequency-band availability ===\n\n");
  {
    eval::TextTable table({"Bands", "F_in", "F_out"});
    const struct {
      const char* name;
      int keep;  // 0 = 2.4 only, 1 = 5 only, 2 = both
    } bands[] = {{"2.4 GHz only", 0}, {"5 GHz only", 1},
                 {"2.4 + 5 GHz", 2}};
    for (const auto& band : bands) {
      math::Vec f_in, f_out;
      for (int seed = 0; seed < kSeeds; ++seed) {
        auto train = TrainRecords(env, model, 0.8, 30 + seed);
        math::Rng rng(300 + seed);
        auto stream = WalkBlock(env, model, 11.2, 50, rng);
        if (band.keep == 0) {
          rf::FilterBand(train, rf::Band::k2_4GHz);
          rf::FilterBand(stream, rf::Band::k2_4GHz);
        } else if (band.keep == 1) {
          rf::FilterBand(train, rf::Band::k5GHz);
          rf::FilterBand(stream, rf::Band::k5GHz);
        }
        core::Gem gem{core::GemConfig{}};
        if (!gem.Train(train).ok()) continue;
        core::GemOverlay overlay;
        const math::InOutMetrics m = EvaluateStream(gem, overlay, stream);
        f_in.push_back(m.f_in);
        f_out.push_back(m.f_out);
      }
      table.AddRow({band.name, eval::FormatValue(math::Mean(f_in)),
                    eval::FormatValue(math::Mean(f_out))});
      if (csv) {
        csv->WriteRow({"d", band.name,
                       eval::FormatValue(math::Mean(f_in)),
                       eval::FormatValue(math::Mean(f_out))});
      }
      std::fprintf(stderr, "  [fig15d] %s done\n", band.name);
    }
    table.Print();
  }
  std::printf("\nExpected shape: robust across times of day and walking "
              "speeds; 2.4+5 GHz >= 5 GHz >= 2.4 GHz.\n");
  return 0;
}
