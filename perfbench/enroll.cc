// enroll: fences enrolled one at a time. Each enrollment trains a model
// (Gem::Train on every core), writes it with store::SaveSnapshotV2,
// maps it through the store (FenceCache cold load = MappedModel::Open)
// and scores the home's held-out stream through Engine::InferBatch.
#include <memory>

#include "common.h"
#include "obs/timeline.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"

namespace perfbench {

using namespace gem;  // NOLINT(build/namespaces) bench binary

namespace {

constexpr int kBatchRepeats = 3;

std::string BatchId(const std::string& id, int repeat) {
  return repeat == 0 ? id : id + "-r" + std::to_string(repeat);
}

}  // namespace

Outcome RunEnroll(const Options& options) {
  const Sizes sizes = Sizes::For(options);
  const Host host = Host::Detect();
  Outcome outcome;
  SpanLog spans;
  auto fail = [&outcome](const std::string& what) {
    ++outcome.failed;
    if (outcome.notes.size() < 20) outcome.notes.push_back(what);
  };

  // Enrollment serves straight after mapping; the overlay it grows is
  // dropped with the fence (no fold on evict), so the only snapshot
  // write an enrollment pays for is its own.
  store::FenceCacheOptions cache_options;
  cache_options.capacity = 2 * kBatchRepeats;
  cache_options.flush_on_evict = false;
  auto cache = std::make_shared<store::FenceCache>(cache_options);
  serve::FenceRegistry registry;
  registry.AttachStore(cache);
  // Engine::InferBatch runs on the calling thread; the one worker idles.
  serve::EngineOptions engine_options;
  engine_options.num_threads = 1;
  serve::Engine engine(&registry, engine_options);
  const fs::path dir = options.work_dir / "enroll";
  fs::create_directories(dir);

  struct Enrollment {
    double enroll_s = 0.0;
    double save_ms = 0.0;
    double map_ms = 0.0;
    double batch_s = 0.0;
    size_t batch_records = 0;
    long repeat_mismatches = 0;
    std::string id;
    std::string path;
    serve::BatchServeResponse batch;
  };
  int serial = 0;
  // Train + SaveSnapshotV2 + map (timed as the enrollment), then the
  // batched scoring of the held-out stream (timed on its own). The
  // stream is scored kBatchRepeats times, each by a fresh fence mapped
  // from the same snapshot, so the batch rate rests on more than one
  // ~0.1 s batch; every repeat must answer exactly like the first.
  auto enroll = [&](const rf::Dataset& data, Enrollment* e) -> Status {
    e->id = "enroll-" + std::to_string(serial++);
    e->path = (dir / (e->id + ".gem")).string();
    const Clock::time_point start = Clock::now();
    double train_s = 0.0;
    Status status = TrainAndSave(data, host.cpus, e->path, &train_s, &e->save_ms);
    if (!status.ok()) return status;
    const Clock::time_point saved = Clock::now();
    status = cache->Register(e->id, e->path);
    if (!status.ok()) return status;
    const auto mapped = registry.Resolve(e->id);
    if (!mapped.ok()) return mapped.status();
    const Clock::time_point done = Clock::now();
    e->enroll_s = Seconds(done - start);
    e->map_ms = Millis(done - saved);
    e->batch_s = 0.0;
    for (int repeat = 0; repeat < kBatchRepeats; ++repeat) {
      const std::string id = BatchId(e->id, repeat);
      if (repeat > 0) {
        status = cache->Register(id, e->path);
        if (!status.ok()) return status;
        const auto resolved = registry.Resolve(id);
        if (!resolved.ok()) return resolved.status();
      }
      const Clock::time_point batch_start = Clock::now();
      serve::BatchServeResponse batch = engine.InferBatch(id, data.test);
      e->batch_s += Seconds(Clock::now() - batch_start);
      e->batch_records += batch.results.size();
      if (!batch.status.ok()) return batch.status;
      if (repeat == 0) {
        e->batch = std::move(batch);
      } else {
        for (size_t i = 0; i < batch.results.size(); ++i) {
          if (!SameOutput(batch.results[i], e->batch.results[i])) {
            ++e->repeat_mismatches;
          }
        }
      }
    }
    return Status::Ok();
  };
  auto retire = [&](const Enrollment& e) {
    for (int repeat = 0; repeat < kBatchRepeats; ++repeat) {
      (void)cache->Deregister(BatchId(e.id, repeat));
    }
    std::error_code ignored;
    fs::remove(e.path, ignored);
  };

  // ---- Set-up, repeated: datasets plus one warm-up enrollment.
  std::vector<double> setup_s, generate_s;
  std::vector<rf::Dataset> homes;
  for (int rep = 0; rep < sizes.enroll_setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    homes = GenerateHomes(options.seed, sizes.enroll_homes, host.cpus);
    generate_s.push_back(Seconds(Clock::now() - start));
    Enrollment warm;
    const Status status = enroll(homes[0], &warm);
    setup_s.push_back(Seconds(Clock::now() - start));
    retire(warm);
    if (!status.ok()) {
      fail("warm-up enrollment failed: " + status.ToString());
      return outcome;
    }
  }

  // ---- Timed cycles over the homes; a traced run alternates untraced
  // and traced cycles.
  std::vector<double> untraced_s, traced_s, dirty_mb, save_ms, lookup_ms;
  std::vector<uint64_t> home_digest(homes.size(), 0);
  double batch_wall = 0.0, store_s = 0.0, enroll_total_s = 0.0;
  size_t batch_records = 0;
  Counters counters, train_counters;
  double traced_trainings = 0;
  StageSamples stages;
  FScores scores;
  long absorbed = 0, inside = 0, mismatches = 0;
  double timed = 0.0;
  int cycle = 0;
  const int min_cycles = options.trace ? 2 : 1;
  while (timed < options.seconds || cycle < min_cycles) {
    const bool traced = options.trace && cycle % 2 == 1;
    for (size_t home = 0; home < homes.size(); ++home) {
      const rf::Dataset& data = homes[home];
      if (traced) StartTimeline(kTrainEvents);
      const Counters before = Counters::Read();
      Enrollment e;
      const Status status = enroll(data, &e);
      const Counters delta = Counters::Read() - before;
      dirty_mb.push_back(PrivateDirtyMb());
      if (traced) {
        spans.AbsorbLive();
        obs::Timeline::Disable();
        train_counters += delta;
        ++traced_trainings;
      }
      counters += delta;
      ++outcome.attempted;
      if (!status.ok()) {
        fail("enrollment of home " + std::to_string(home) +
             " failed: " + status.ToString());
        retire(e);
        continue;
      }
      timed += e.enroll_s + e.batch_s;
      enroll_total_s += e.enroll_s;
      store_s += (e.save_ms + e.map_ms) / 1e3;
      save_ms.push_back(e.save_ms);
      (traced ? traced_s : untraced_s).push_back(e.enroll_s);
      if (!traced) {
        batch_wall += e.batch_s;
        batch_records += e.batch_records;
      }
      if (e.repeat_mismatches > 0) {
        mismatches += e.repeat_mismatches;
        fail("home " + std::to_string(home) + ": a repeated batch answered " +
             "differently on " + std::to_string(e.repeat_mismatches) +
             " records");
      }

      // ---- Output check: the batch answers must equal the
      // single-record path on a fresh mapping, and every cycle must
      // train and answer exactly as the first.
      std::vector<core::InferenceResult>& results = e.batch.results;
      if (options.corrupt_digest && cycle == 0 && home == 0) {
        results[0].score += 1.0;
      }
      long bad = 0;
      if (traced) {
        bad = ReplayStages(e.path, data.test, results,
                           (dir / "replay.gem").string(), &stages);
        for (int i = 0; i < 16; ++i) {
          const Clock::time_point lookup = Clock::now();
          const auto resolved = registry.Resolve(e.id);
          lookup_ms.push_back(Millis(Clock::now() - lookup));
          if (!resolved.ok()) bad = -1;
        }
      } else {
        Status replayed;
        const std::vector<core::InferenceResult> expected =
            InferLoop(e.path, data.test, &replayed);
        if (!replayed.ok()) bad = -1;
        for (size_t i = 0; i < expected.size(); ++i) {
          if (!SameOutput(results[i], expected[i])) ++bad;
        }
      }
      if (bad != 0) {
        mismatches += bad > 0 ? bad : 0;
        fail("home " + std::to_string(home) + " cycle " +
             std::to_string(cycle) + ": batch answers " +
             (bad < 0 ? "could not be replayed"
                      : "differ from the single-record path on " +
                            std::to_string(bad) + " records"));
      }
      Digest digest;
      for (size_t i = 0; i < results.size(); ++i) {
        digest.Add(results[i]);
        scores.Add(data.test[i].inside, results[i].decision);
        if (results[i].decision == core::Decision::kInside) ++inside;
        if (results[i].model_updated) ++absorbed;
      }
      if (cycle == 0) {
        home_digest[home] = digest.value();
      } else if (digest.value() != home_digest[home]) {
        fail("home " + std::to_string(home) + " cycle " +
             std::to_string(cycle) + " answers differ from cycle 0");
      }
      retire(e);
    }
    ++cycle;
  }
  Digest all;
  for (const uint64_t value : home_digest) all.AddValue(value);
  outcome.digest = all.value();

  std::map<std::string, double>& e2e = outcome.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["op_p50_ms"] = Quantile(untraced_s, 0.50) * 1e3;
  // A run enrolls a few dozen fences, so p99 would be the single
  // slowest one; p90 is the tail these samples can carry.
  e2e["op_tail_ms"] = Quantile(untraced_s, 0.90) * 1e3;
  e2e["decisions_per_s"] = Ratio(batch_records, batch_wall);
  e2e["f_in"] = scores.in.F1();
  e2e["f_out"] = scores.out.F1();
  e2e["private_dirty_mb"] = Median(dirty_mb);

  const double enrollments = static_cast<double>(outcome.attempted);
  std::map<std::string, double>& layer = outcome.per_layer;
  AddSharedLayerMetrics(spans, stages, traced_trainings, train_counters,
                        Median(generate_s), save_ms, &layer);
  // Engine::InferBatch skips the request queue; its wait before the
  // model runs is the fence-mutex wait.
  layer["serve.queue_wait_p50_ms"] = Median(spans.DurationsMs("serve.fence_wait"));
  layer["serve.lookup_p50_ms"] = Median(lookup_ms);
  layer["serve.rejected"] = Ratio(counters.rejected, enrollments);
  layer["serve.replay_mismatch"] = static_cast<double>(mismatches);
  layer["store.hit_ratio"] =
      Ratio(counters.hits, static_cast<double>(counters.hits + counters.misses));
  layer["store.share"] = Ratio(store_s, enroll_total_s);
  layer["store.evictions"] = Ratio(counters.evictions, enrollments);
  layer["store.flushes"] = Ratio(counters.flushes, enrollments);
  layer["core.no_common_mac"] = Ratio(counters.no_common_mac, enrollments);
  layer["embed.share"] = Ratio(spans.InclusiveS("gem.embed_batch"),
                               spans.InclusiveS("serve.infer_batch"));
  layer["detect.absorb_ratio"] = Ratio(absorbed, inside);
  layer["obs.trace_overhead"] = Ratio(Median(traced_s), Median(untraced_s));

  outcome.report = {
      {"setup_s", e2e["setup_s"], "s"},
      {"enroll_p50_s", e2e["op_p50_ms"] / 1e3, "s"},
      {"enroll_p90_s", e2e["op_tail_ms"] / 1e3, "s"},
      {"enroll_samples", static_cast<double>(untraced_s.size()), "count"},
      {"batch_records_per_s", e2e["decisions_per_s"], "1/s"},
      {"f_in", e2e["f_in"], "ratio"},
      {"f_out", e2e["f_out"], "ratio"},
      {"private_dirty_mb", e2e["private_dirty_mb"], "MiB"},
      {"cycles", static_cast<double>(cycle), "count"},
      {"homes_per_cycle", static_cast<double>(homes.size()), "count"},
      {"train_threads", static_cast<double>(host.cpus), "count"},
  };
  if (options.trace) {
    outcome.stage_table = spans.Table();
    if (spans.dropped() > 0) fail("timeline dropped events");
  }
  return outcome;
}

}  // namespace perfbench
