// hot_fences and fleet_zipf: closed-loop scan-to-decision serving
// through serve::Engine -> FenceRegistry::Resolve -> store::FenceCache
// + MappedModel over v2 snapshots -> the const core::Gem read API with
// a per-fence GemOverlay.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>

#include "common.h"
#include "obs/timeline.h"
#include "serve/engine.h"
#include "serve/fence_registry.h"
#include "store/fence_cache.h"
#include "store/mapped_model.h"

namespace perfbench {
namespace {

using namespace gem;  // NOLINT(build/namespaces) bench binary

std::string FenceId(int fence) { return "fence-" + std::to_string(fence); }

/// Starting points of fleet_zipf devices within a stream.
constexpr size_t kStarts = 6;

/// A device's request sequence: (home, start).
using Sequence = std::pair<int, size_t>;

/// Who sends each request of a round, and how the store is sized.
struct Fleet {
  /// Fence -> the home whose snapshot and stream it uses.
  std::vector<int> home_of;
  /// Fence -> where in its home's stream the device starts.
  std::vector<size_t> start;
  /// The fence of every request of a round, in sending order.
  std::vector<int> picks;
  /// Fences cold-loaded before timing, least popular first.
  std::vector<int> warm;
  size_t capacity = 0;

  /// Requests each fence sends in a round.
  std::vector<size_t> Counts() const {
    std::vector<size_t> counts(home_of.size(), 0);
    for (const int fence : picks) ++counts[fence];
    return counts;
  }
};

/// A few dozen fences, all resident: every device replays its home's
/// whole stream, round-robin, so every overlay grows in step.
Fleet HotFleet(const Sizes& sizes, const std::vector<rf::Dataset>& homes) {
  Fleet fleet;
  const int fences = kHomes * sizes.hot_copies;
  std::vector<size_t> counts;
  size_t longest = 0;
  for (int fence = 0; fence < fences; ++fence) {
    const size_t stream = homes[fence % kHomes].test.size();
    const size_t count =
        sizes.hot_requests > 0
            ? std::min(static_cast<size_t>(sizes.hot_requests), stream)
            : stream;
    fleet.home_of.push_back(fence % kHomes);
    fleet.start.push_back(0);
    fleet.warm.push_back(fence);
    counts.push_back(count);
    longest = std::max(longest, count);
  }
  for (size_t k = 0; k < longest; ++k) {
    for (int fence = 0; fence < fences; ++fence) {
      if (k < counts[fence]) fleet.picks.push_back(fence);
    }
  }
  fleet.capacity = static_cast<size_t>(fences);
  return fleet;
}

/// Thousands of fences with Zipf popularity behind a small cache; the
/// `capacity` most popular start resident. The seed draws the request
/// sequence and which fence id holds which popularity rank.
Fleet ZipfFleet(const Sizes& sizes, uint64_t seed) {
  Fleet fleet;
  SplitMix rng(seed * 0x2545f4914f6cdd1dULL + 0x5a17);
  const int fences = sizes.fleet_fences;
  std::vector<int> by_rank(fences);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  for (int i = fences - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[rng.Next() % static_cast<uint64_t>(i + 1)]);
  }
  std::vector<double> cdf(fences);
  double total = 0.0;
  for (int rank = 0; rank < fences; ++rank) {
    total += 1.0 / (rank + 1.0);
    cdf[rank] = total;
  }
  // Popularity ranks cycle through the homes, so every home has the
  // same share of hot and cold fences whatever the seed; and devices
  // are spread over the day (six starts per stream), so the inside and
  // outside segments of every home are served, not only the opening
  // inside segment of each stream.
  fleet.home_of.resize(fences);
  fleet.start.resize(fences);
  for (int rank = 0; rank < fences; ++rank) {
    fleet.home_of[by_rank[rank]] = rank % kHomes;
    fleet.start[by_rank[rank]] = static_cast<size_t>((rank / kHomes) % kStarts);
  }
  for (int i = 0; i < sizes.fleet_requests; ++i) {
    const double u = rng.Uniform() * total;
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        static_cast<size_t>(fences - 1));
    fleet.picks.push_back(by_rank[rank]);
  }
  fleet.capacity = static_cast<size_t>(sizes.fleet_capacity);
  for (int rank = sizes.fleet_capacity - 1; rank >= 0; --rank) {
    fleet.warm.push_back(by_rank[rank]);
  }
  return fleet;
}

/// A device's k-th scan: its home's labelled stream from its start,
/// wrapping when it asks for more.
const rf::ScanRecord& Scan(const rf::Dataset& home, size_t start, size_t k) {
  const size_t begin = home.test.size() * start / kStarts;
  return home.test[(begin + k) % home.test.size()];
}

/// One served answer.
struct Answer {
  core::InferenceResult result;
  uint64_t generation = 0;
  bool ok = false;
};

/// Closed-loop load. Each fence is one device with at most one scan in
/// flight; `in_flight` devices are served at once, and a device sends
/// its next scan only after its last decision returned. Requests go
/// out in the order of fleet.picks, except that a pick whose device is
/// still waiting is deferred until the device is free — so every
/// device's own request sequence is fixed whatever the threads do.
class ClosedLoop {
 public:
  ClosedLoop(serve::Engine* engine, const Fleet& fleet,
             const std::vector<rf::Dataset>& homes, int in_flight)
      : engine_(engine),
        picks_(fleet.picks),
        in_flight_limit_(in_flight),
        busy_(fleet.home_of.size(), 0),
        sent_(fleet.home_of.size(), 0) {
    // Requests are built before timing, so the timed loop only moves
    // them into the engine.
    const std::vector<size_t> counts = fleet.Counts();
    requests_.resize(counts.size());
    answers_.resize(counts.size());
    for (size_t fence = 0; fence < counts.size(); ++fence) {
      const rf::Dataset& home = homes[fleet.home_of[fence]];
      for (size_t k = 0; k < counts[fence]; ++k) {
        requests_[fence].push_back(
            serve::ServeRequest{FenceId(static_cast<int>(fence)),
                                Scan(home, fleet.start[fence], k), {}});
      }
      answers_[fence].resize(counts[fence]);
    }
    latency_ms_.reserve(picks_.size());
  }

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Sends every pick and waits for every answer; returns the seconds
  /// from the first send to the last answer.
  double Run() {
    std::unique_lock lock(mutex_);
    const Clock::time_point start = Clock::now();
    finished_at_ = start;
    PumpLocked();
    finished_.wait(lock, [this] { return answered_ == picks_.size(); });
    return Seconds(finished_at_ - start);
  }

  std::vector<std::vector<Answer>>& answers() { return answers_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  long failed() const { return failed_; }

 private:
  /// The next device to send, if any is free.
  bool NextLocked(int* fence) {
    for (auto it = deferred_.begin(); it != deferred_.end(); ++it) {
      if (!busy_[*it]) {
        *fence = *it;
        deferred_.erase(it);
        return true;
      }
    }
    while (next_pick_ < picks_.size()) {
      const int pick = picks_[next_pick_++];
      if (!busy_[pick]) {
        *fence = pick;
        return true;
      }
      deferred_.push_back(pick);
    }
    return false;
  }

  void PumpLocked() {
    int fence = 0;
    while (in_flight_ < in_flight_limit_ && NextLocked(&fence)) {
      const size_t index = sent_[fence]++;
      busy_[fence] = 1;
      ++in_flight_;
      const Clock::time_point sent = Clock::now();
      const Status submitted = engine_->Submit(
          std::move(requests_[fence][index]),
          [this, fence, index, sent](serve::ServeResponse response) {
            OnAnswer(fence, index, sent, std::move(response));
          });
      if (!submitted.ok()) {
        // Rejected at admission: the device's scan is lost.
        ++failed_;
        FinishLocked(fence, Clock::now());
      }
    }
  }

  void FinishLocked(int fence, Clock::time_point now) {
    busy_[fence] = 0;
    --in_flight_;
    if (++answered_ == picks_.size()) {
      finished_at_ = now;
      finished_.notify_all();
    }
  }

  void OnAnswer(int fence, size_t index, Clock::time_point sent,
                serve::ServeResponse response) {
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(mutex_);
    latency_ms_.push_back(Millis(now - sent));
    Answer& answer = answers_[fence][index];
    answer.ok = response.status.ok();
    answer.result = response.result;
    answer.generation = response.fence_generation;
    if (!answer.ok) ++failed_;
    FinishLocked(fence, now);
    if (answered_ < picks_.size()) PumpLocked();
  }

  serve::Engine* const engine_;
  const std::vector<int>& picks_;
  const int in_flight_limit_;
  std::vector<std::vector<serve::ServeRequest>> requests_;

  std::mutex mutex_;
  std::condition_variable finished_;
  size_t next_pick_ = 0;
  std::deque<int> deferred_;
  std::vector<char> busy_;
  std::vector<size_t> sent_;
  int in_flight_ = 0;
  size_t answered_ = 0;
  long failed_ = 0;
  Clock::time_point finished_at_;
  std::vector<std::vector<Answer>> answers_;
  std::vector<double> latency_ms_;
};

/// A fresh copy of the store in `dir`: hard links to the pristine home
/// snapshots (an overlay flush replaces its file by rename, so the
/// pristine files are never written), registered in a new FenceCache
/// with default options apart from the capacity.
StatusOr<std::shared_ptr<store::FenceCache>> BuildStore(
    const fs::path& dir, const Fleet& fleet,
    const std::vector<std::string>& pristine) {
  std::error_code error;
  fs::create_directories(dir, error);
  if (error) return Status::Internal("cannot create " + dir.string());
  store::FenceCacheOptions options;
  options.capacity = fleet.capacity;
  auto cache = std::make_shared<store::FenceCache>(options);
  for (size_t fence = 0; fence < fleet.home_of.size(); ++fence) {
    const std::string id = FenceId(static_cast<int>(fence));
    const fs::path path = dir / (id + ".gem");
    const std::string& source = pristine[fleet.home_of[fence]];
    fs::create_hard_link(source, path, error);
    if (error) fs::copy_file(source, path, error);
    if (error) return Status::Internal("cannot copy " + source);
    const Status registered = cache->Register(id, path.string());
    if (!registered.ok()) return registered;
  }
  return cache;
}

Status WarmStore(const serve::FenceRegistry& registry, const Fleet& fleet) {
  for (const int fence : fleet.warm) {
    const auto resolved = registry.Resolve(FenceId(fence));
    if (!resolved.ok()) return resolved.status();
  }
  return Status::Ok();
}

/// A store round-trip used by set-up: build, attach, warm, detach.
Status BuildAndWarm(const fs::path& dir, const Fleet& fleet,
                    const std::vector<std::string>& pristine,
                    serve::FenceRegistry* registry) {
  auto cache = BuildStore(dir, fleet, pristine);
  if (!cache.ok()) return cache.status();
  registry->AttachStore(*cache);
  const Status warmed = WarmStore(*registry, fleet);
  registry->AttachStore(nullptr);
  return warmed;
}

}  // namespace

Outcome RunServing(const Options& options, bool zipf) {
  const Sizes sizes = Sizes::For(options);
  const Host host = Host::Detect();
  Outcome outcome;
  SpanLog spans;
  auto fail = [&outcome](const std::string& what) {
    ++outcome.failed;
    if (outcome.notes.size() < 20) outcome.notes.push_back(what);
  };

  // ---- Set-up, repeated: datasets, training, snapshots, store, warm-up.
  std::vector<double> setup_s, generate_s, save_ms;
  std::vector<rf::Dataset> homes;
  std::vector<std::string> pristine(kHomes);
  std::vector<uint64_t> pristine_hash(kHomes, 0);
  Fleet fleet;
  serve::FenceRegistry registry;
  Counters train_counters;
  double trainings = 0;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    if (options.trace) StartTimeline(kTrainEvents);
    const Counters before = Counters::Read();
    const Clock::time_point start = Clock::now();
    std::vector<rf::Dataset> generated =
        GenerateHomes(options.seed, kHomes, host.cpus);
    generate_s.push_back(Seconds(Clock::now() - start));
    const fs::path rep_dir =
        options.work_dir / ("setup-" + std::to_string(rep));
    fs::create_directories(rep_dir);
    std::vector<std::string> paths;
    for (int home = 0; home < kHomes; ++home) {
      paths.push_back((rep_dir / ("home-" + std::to_string(home) + ".gem"))
                          .string());
      double train_s = 0.0, save = 0.0;
      const Status trained =
          TrainAndSave(generated[home], host.cpus, paths.back(), &train_s,
                       &save);
      if (!trained.ok()) {
        fail("training home " + std::to_string(home) +
             " failed: " + trained.ToString());
        return outcome;
      }
      save_ms.push_back(save);
    }
    Fleet rep_fleet = zipf ? ZipfFleet(sizes, options.seed)
                           : HotFleet(sizes, generated);
    const Status warmed =
        BuildAndWarm(rep_dir / "store", rep_fleet, paths, &registry);
    setup_s.push_back(Seconds(Clock::now() - start));
    train_counters += Counters::Read() - before;
    trainings += kHomes;
    if (options.trace) {
      // Durations only: the stage table covers the timed rounds.
      spans.AbsorbLive(0, 0);
      obs::Timeline::Disable();
    }
    if (!warmed.ok()) fail("store warm-up failed: " + warmed.ToString());
    fs::remove_all(rep_dir / "store");
    // Training is deterministic at a fixed thread count, so every
    // repetition must write the same bytes.
    for (int home = 0; home < kHomes; ++home) {
      const uint64_t hash = FileHash(paths[home]);
      if (rep == 0) {
        pristine_hash[home] = hash;
      } else if (hash != pristine_hash[home]) {
        fail("set-up repetition " + std::to_string(rep) +
             " trained a different model for home " + std::to_string(home));
      }
    }
    if (rep == 0) {
      homes = std::move(generated);
      pristine = paths;
      fleet = std::move(rep_fleet);
    } else {
      fs::remove_all(rep_dir);
    }
  }

  // ---- Reference answers: each device sequence (home, start) through
  // Gem::InferBatch on a fresh mapping (bit-identical to the Infer loop
  // by contract), i.e. what a fence answers with no evict/flush/reload.
  // Devices sharing a home and start share the longest such sequence.
  const std::vector<size_t> counts = fleet.Counts();
  std::map<Sequence, size_t> sequences;
  for (size_t fence = 0; fence < counts.size(); ++fence) {
    if (counts[fence] == 0) continue;
    size_t& longest = sequences[{fleet.home_of[fence], fleet.start[fence]}];
    longest = std::max(longest, counts[fence]);
  }
  std::map<Sequence, std::vector<rf::ScanRecord>> scans;
  for (const auto& [sequence, count] : sequences) {
    std::vector<rf::ScanRecord>& records = scans[sequence];
    for (size_t k = 0; k < count; ++k) {
      records.push_back(Scan(homes[sequence.first], sequence.second, k));
    }
  }
  std::map<Sequence, std::vector<core::InferenceResult>> reference;
  for (const auto& [sequence, records] : scans) {
    StatusOr<store::MappedModel> mapped =
        store::MappedModel::Open(pristine[sequence.first]);
    if (!mapped.ok()) {
      fail("cannot map home " + std::to_string(sequence.first));
      return outcome;
    }
    if (options.trace) StartTimeline(kServeEvents);
    core::GemOverlay overlay;
    reference[sequence] = mapped->gem().InferBatch(records, overlay);
    if (options.trace) {
      // Durations only: the stage table covers the timed rounds.
      spans.AbsorbLive(0, 0);
      obs::Timeline::Disable();
    }
  }

  // ---- Timed rounds. Each starts from a fresh copy of the store, so
  // every round goes through the same overlay growth.
  if (options.trace) SizeTimelineBuffers(kServeEvents);
  serve::EngineOptions engine_options;
  engine_options.num_threads = host.workers;
  serve::Engine engine(&registry, engine_options);

  std::vector<double> untraced_ms, traced_ms, dirty_mb;
  double untraced_wall = 0.0;
  size_t untraced_decisions = 0;
  Counters served;
  FScores scores;
  long absorbed = 0, inside = 0, mismatches = 0;
  double timed = 0.0;
  int round = 0;
  const int min_rounds = options.trace ? 2 : 1;
  while (timed < options.seconds || round < min_rounds) {
    // A traced run alternates untraced and traced rounds, so the
    // tracing overhead is measured inside one process.
    const bool traced = options.trace && round % 2 == 1;
    const fs::path dir = options.work_dir / ("round-" + std::to_string(round));
    if (traced) StartTimeline(kServeEvents);
    auto cache = BuildStore(dir, fleet, pristine);
    if (!cache.ok()) {
      fail("store copy failed: " + cache.status().ToString());
      break;
    }
    registry.AttachStore(*cache);
    const Status warmed = WarmStore(registry, fleet);
    if (!warmed.ok()) fail("store warm-up failed: " + warmed.ToString());

    ClosedLoop loop(&engine, fleet, homes, host.workers);
    const Counters before = Counters::Read();
    const int64_t window_begin = obs::Timeline::NowNs();
    const double wall = loop.Run();
    const int64_t window_end = obs::Timeline::NowNs();
    served += Counters::Read() - before;
    dirty_mb.push_back(PrivateDirtyMb());
    // Teardown (untimed): dropping the cache folds resident overlays.
    registry.AttachStore(nullptr);
    cache->reset();
    if (traced) {
      spans.Absorb(obs::Timeline::Snapshot(), window_begin, window_end);
      obs::Timeline::Disable();
    }
    // Round stores stay until the run ends (the caller removes the
    // work directory): deleting a thousand flushed snapshots issues
    // disk discards that would land in the next round's timed window.

    timed += wall;
    outcome.attempted += static_cast<long>(fleet.picks.size());
    outcome.failed += loop.failed();
    std::vector<double>& latencies = traced ? traced_ms : untraced_ms;
    latencies.insert(latencies.end(), loop.latency_ms().begin(),
                     loop.latency_ms().end());
    if (!traced) {
      untraced_wall += wall;
      untraced_decisions += loop.latency_ms().size();
    }

    // ---- Output check against the reference, answer by answer.
    std::vector<std::vector<Answer>>& answers = loop.answers();
    if (options.corrupt_digest && round == 0 && !answers[fleet.picks[0]].empty()) {
      answers[fleet.picks[0]][0].result.score += 1.0;
    }
    Digest digest;
    for (size_t fence = 0; fence < answers.size(); ++fence) {
      const Sequence sequence{fleet.home_of[fence], fleet.start[fence]};
      const std::vector<core::InferenceResult>& expected = reference[sequence];
      for (size_t k = 0; k < answers[fence].size(); ++k) {
        const Answer& answer = answers[fence][k];
        if (!answer.ok) {
          digest.AddValue(~0ULL);
          continue;
        }
        digest.Add(answer.result);
        scores.Add(scans[sequence][k].inside, answer.result.decision);
        if (answer.result.decision == core::Decision::kInside) ++inside;
        if (answer.result.model_updated) ++absorbed;
        if (!SameOutput(answer.result, expected[k])) {
          ++mismatches;
          // A reload after an evict+flush bumps the generation: name
          // which fold the answer was served from.
          fail("mismatch: " + FenceId(static_cast<int>(fence)) +
               " request " + std::to_string(k) + " served by generation " +
               std::to_string(answer.generation) +
               (answer.generation > 1
                    ? " (after " + std::to_string(answer.generation - 1) +
                          " evict/flush/reload)"
                    : " (never reloaded)"));
        }
      }
    }
    if (round == 0) {
      outcome.digest = digest.value();
    } else if (digest.value() != outcome.digest) {
      fail("round " + std::to_string(round) + " digest differs from round 0");
    }
    ++round;
  }

  // ---- Direct replay (traced run): the public stage calls, timed one
  // by one, must reproduce the reference too.
  StageSamples stages;
  if (options.trace) {
    for (const auto& [sequence, records] : scans) {
      const long bad = ReplayStages(pristine[sequence.first], records,
                                    reference[sequence],
                                    (options.work_dir / "replay.gem").string(),
                                    &stages);
      if (bad != 0) {
        fail("direct replay of home " + std::to_string(sequence.first) +
             " from start " + std::to_string(sequence.second) +
             (bad < 0 ? " failed" : " disagrees on " + std::to_string(bad) +
                                        " records"));
      }
    }
  }

  const double hit_total = static_cast<double>(served.hits + served.misses);
  std::map<std::string, double>& e2e = outcome.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["op_p50_ms"] = Quantile(untraced_ms, 0.50);
  e2e["op_tail_ms"] = Quantile(untraced_ms, 0.99);
  e2e["decisions_per_s"] = Ratio(untraced_decisions, untraced_wall);
  e2e["f_in"] = scores.in.F1();
  e2e["f_out"] = scores.out.F1();
  e2e["private_dirty_mb"] = Median(dirty_mb);

  std::map<std::string, double>& layer = outcome.per_layer;
  AddSharedLayerMetrics(spans, stages, trainings, train_counters,
                        Median(generate_s), save_ms, &layer);
  layer["serve.queue_wait_p50_ms"] = Median(spans.DurationsMs("serve.queue_wait"));
  layer["serve.lookup_p50_ms"] = Median(spans.DurationsMs("serve.lookup"));
  layer["serve.rejected"] = Ratio(served.rejected, round);
  layer["serve.replay_mismatch"] = static_cast<double>(mismatches);
  layer["store.hit_ratio"] = Ratio(served.hits, hit_total);
  layer["store.share"] = Ratio(spans.InclusiveS("serve.lookup"),
                               spans.InclusiveS("serve.request"));
  layer["store.evictions"] = Ratio(served.evictions, round);
  layer["store.flushes"] = Ratio(served.flushes, round);
  layer["core.no_common_mac"] = Ratio(served.no_common_mac, round);
  layer["embed.share"] = Ratio(spans.ExclusiveS("gem.embed"),
                               spans.InclusiveS("serve.request"));
  layer["detect.absorb_ratio"] = Ratio(absorbed, inside);
  layer["obs.trace_overhead"] =
      Ratio(Median(traced_ms), Median(untraced_ms));
  if (served.flush_failures > 0) {
    fail(std::to_string(served.flush_failures) + " overlay flushes failed");
  }

  outcome.report = {
      {"setup_s", e2e["setup_s"], "s"},
      {"decide_p50_ms", e2e["op_p50_ms"], "ms"},
      {"decide_p99_ms", e2e["op_tail_ms"], "ms"},
      {"decide_samples", static_cast<double>(untraced_ms.size()), "count"},
      {"decisions_per_s", e2e["decisions_per_s"], "1/s"},
      {"f_in", e2e["f_in"], "ratio"},
      {"f_out", e2e["f_out"], "ratio"},
      {"private_dirty_mb", e2e["private_dirty_mb"], "MiB"},
      {"rounds", static_cast<double>(round), "count"},
      {"fences", static_cast<double>(fleet.home_of.size()), "count"},
      {"requests_per_round", static_cast<double>(fleet.picks.size()), "count"},
      {"cache_capacity", static_cast<double>(fleet.capacity), "count"},
      {"devices_in_flight", static_cast<double>(host.workers), "count"},
  };
  if (options.trace) {
    outcome.stage_table = spans.Table();
    if (spans.dropped() > 0) fail("timeline dropped events");
  }
  return outcome;
}

}  // namespace perfbench
