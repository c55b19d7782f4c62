// Fleet-telemetry aggregation suite: the log-linear obs::Histogram's
// bucket arithmetic and exact merge and its JSON wire forms (the substrate
// of the fleet merge), then src/obs/agg/ — the FleetMonitor's
// liveness/straggler verdicts over synthetic heartbeat files. The
// TsanStressTest cases run again under the sanitizer CI job
// (ctest -R '^TsanStress').
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/agg/fleet.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ordo {
namespace {

namespace agg = obs::agg;
namespace fs = std::filesystem;

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- bucket arithmetic -----------------------------------------------------

TEST(Histogram, BucketIndexRoundTripsThroughLowerBound) {
  // Every bucket's lower bound must index back into that same bucket, and
  // the lower bounds must be strictly increasing — together these pin the
  // bucketing as a partition of [0, inf).
  double previous = -1.0;
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    const double lower = obs::histogram_bucket_lower(i);
    EXPECT_EQ(obs::histogram_bucket_index(lower), i) << "lower=" << lower;
    EXPECT_GT(lower, previous) << "at index " << i;
    previous = lower;
  }
  // Bucket 0 holds zero and everything below 2^-32; bucket 1 starts there.
  EXPECT_EQ(obs::histogram_bucket_index(0.0), 0);
  EXPECT_EQ(obs::histogram_bucket_lower(0), 0.0);
  EXPECT_EQ(obs::histogram_bucket_index(0x1p-33), 0);
  EXPECT_EQ(obs::histogram_bucket_lower(1), 0x1p-32);
  // Negative values (clock went backwards) and NaN clamp to the first
  // bucket; absurdly large ones clamp to the last instead of indexing out of
  // range.
  EXPECT_EQ(obs::histogram_bucket_index(-5.0), 0);
  EXPECT_EQ(obs::histogram_bucket_index(std::nan("")), 0);
  EXPECT_EQ(obs::histogram_bucket_index(0x1p62), obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::histogram_bucket_index(0x1p48), obs::kHistogramBuckets - 1);
}

TEST(Histogram, BucketWidthStaysWithinOneEighthOfLowerBound) {
  // The relative-error contract: 8 sub-buckets per octave means a recorded
  // value is under-reported by at most 12.5% when quoted as its bucket's
  // lower bound (the percentile convention).
  for (int i = 1; i + 1 < obs::kHistogramBuckets; ++i) {
    const double lower = obs::histogram_bucket_lower(i);
    const double next = obs::histogram_bucket_lower(i + 1);
    EXPECT_LE((next - lower) * 8, lower) << "bucket " << i << " too wide";
  }
}

TEST(Histogram, PercentilesAreMonotoneAndBracketTheSamples) {
  obs::Histogram histogram;
  // A long-tailed sample: 90 fast, 9 medium, 1 slow.
  for (int i = 0; i < 90; ++i) histogram.record(1e-6);
  for (int i = 0; i < 9; ++i) histogram.record(1e-4);
  histogram.record(0.05);
  const obs::Histogram::Snapshot snapshot = histogram.snapshot();

  EXPECT_EQ(snapshot.count, 100);
  EXPECT_DOUBLE_EQ(snapshot.sum, 90 * 1e-6 + 9 * 1e-4 + 0.05);
  EXPECT_EQ(snapshot.min, 1e-6);
  EXPECT_EQ(snapshot.max, 0.05);
  const double p50 = snapshot.percentile(0.50);
  const double p90 = snapshot.percentile(0.90);
  const double p99 = snapshot.percentile(0.99);
  const double p999 = snapshot.percentile(0.999);
  EXPECT_LE(snapshot.min, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, snapshot.max);
  // Each quantile lands in the recorded value's bucket: lower bound at most
  // the value, within the 12.5% width contract below it — clamped up to
  // min where the smallest sample sits inside its bucket.
  EXPECT_EQ(p50, snapshot.min);
  EXPECT_EQ(p99, obs::histogram_bucket_lower(
                     obs::histogram_bucket_index(1e-4)));
  EXPECT_EQ(p999, obs::histogram_bucket_lower(
                      obs::histogram_bucket_index(0.05)));
}

TEST(Histogram, RatiosCountsAndSubMicrosecondTimesKeepTheirUnit) {
  // The summary metrics share the histogram with wall times: an imbalance
  // ratio, a hardware-counter-sized count and a sub-microsecond phase each
  // land in a bucket within 1/8 below the value, and read back unscaled.
  for (const double value : {1.3, 1e11, 2.5e-7}) {
    const double lower =
        obs::histogram_bucket_lower(obs::histogram_bucket_index(value));
    EXPECT_LE(lower, value) << value;
    EXPECT_LE((value - lower) * 8, lower) << value;
    obs::Histogram single;
    single.record(value);
    const obs::Histogram::Snapshot s = single.snapshot();
    EXPECT_EQ(s.min, value);
    EXPECT_EQ(s.max, value);
    EXPECT_EQ(s.percentile(0.5), value);  // clamped into [min, max]
  }
  obs::Histogram mixed;
  for (const double value : {1.3, 1e11, 2.5e-7}) mixed.record(value);
  const obs::Histogram::Snapshot s = mixed.snapshot();
  EXPECT_EQ(s.min, 2.5e-7);
  EXPECT_EQ(s.max, 1e11);
  EXPECT_LE(s.percentile(0.5), 1.3);
  EXPECT_GE(s.percentile(0.5) * 9 / 8, 1.3);
}

TEST(Histogram, EmptySnapshotIsAbsentNotZero) {
  const obs::Histogram::Snapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.percentile(0.99), 0.0);

  // A named-but-never-recorded histogram must not appear in the section:
  // monitors render what exists, never "p99 0s".
  obs::histogram("test.agg.never_recorded");
  std::string section;
  obs::append_histograms_json(section, obs::sample_histograms(),
                              /*include_buckets=*/false);
  const obs::JsonValue doc = obs::parse_json(section);
  EXPECT_EQ(doc.find("test.agg.never_recorded"), nullptr);
}

TEST(Histogram, MergeIsExactAssociativeAndCommutative) {
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram c;
  obs::Histogram everything;
  const double samples_a[] = {5, 123, 9'999, 1'000'000};
  const double samples_b[] = {7, 123, 55'000'000};
  const double samples_c[] = {0, 3'000'000'000};
  for (const double v : samples_a) a.record(v), everything.record(v);
  for (const double v : samples_b) b.record(v), everything.record(v);
  for (const double v : samples_c) c.record(v), everything.record(v);

  // (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c): bucket sums are integers and the samples
  // are integer-valued doubles, so the merge is exact and the comparison is
  // equality, bucket for bucket.
  obs::Histogram::Snapshot left = a.snapshot();
  left.merge(b.snapshot());
  left.merge(c.snapshot());
  obs::Histogram::Snapshot right = b.snapshot();
  right.merge(c.snapshot());
  obs::Histogram::Snapshot right_total = a.snapshot();
  right_total.merge(right);
  const obs::Histogram::Snapshot direct = everything.snapshot();
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(left.buckets[i], right_total.buckets[i]) << "bucket " << i;
    EXPECT_EQ(left.buckets[i], direct.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(left.count, direct.count);
  EXPECT_EQ(left.sum, direct.sum);
  EXPECT_EQ(right_total.count, direct.count);
  EXPECT_EQ(right_total.sum, direct.sum);
  EXPECT_EQ(left.min, direct.min);
  EXPECT_EQ(left.max, direct.max);
  EXPECT_EQ(right_total.min, direct.min);
  EXPECT_EQ(right_total.max, direct.max);
  // Exactness carries to the derived quantiles: merged-then-derive equals
  // derive-on-the-union at every probed quantile.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(left.percentile(q), direct.percentile(q)) << "q=" << q;
  }
}

TEST(Histogram, JsonRoundTripPreservesBuckets) {
  obs::Histogram histogram;
  histogram.record(42);
  histogram.record(42);
  histogram.record(123'456'789);
  const obs::Histogram::Snapshot original = histogram.snapshot();

  std::string json;
  obs::append_histogram_json(json, original, /*include_buckets=*/true);
  const obs::ParsedHistogram parsed =
      obs::parse_histogram_json(obs::parse_json(json));
  ASSERT_TRUE(parsed.has_buckets);
  EXPECT_EQ(parsed.snapshot.count, original.count);
  EXPECT_EQ(parsed.snapshot.sum, original.sum);
  EXPECT_EQ(parsed.snapshot.min, original.min);
  EXPECT_EQ(parsed.snapshot.max, original.max);
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(parsed.snapshot.buckets[i], original.buckets[i]);
  }

  // The percentiles-only form (fleet section, BENCH reports) parses too,
  // just without bucket detail.
  std::string thin;
  obs::append_histogram_json(thin, original, /*include_buckets=*/false);
  const obs::ParsedHistogram thin_parsed =
      obs::parse_histogram_json(obs::parse_json(thin));
  EXPECT_FALSE(thin_parsed.has_buckets);
  EXPECT_EQ(thin_parsed.snapshot.count, original.count);
}

TEST(Histogram, RegistryMergeFeedsNamedHistogram) {
  // The parent's post-waitpid fold: merging a worker's snapshot into a
  // named histogram adds to whatever the parent recorded itself.
  obs::Histogram worker;
  worker.record(2'000);
  worker.record(4'000);
  obs::histogram("test.agg.fold").record(1'000);
  obs::histogram("test.agg.fold").merge(worker.snapshot());
  const obs::Histogram::Snapshot folded =
      obs::histogram("test.agg.fold").snapshot();
  EXPECT_EQ(folded.count, 3);
  EXPECT_EQ(folded.sum, 7'000);
  EXPECT_EQ(folded.min, 1'000);
  EXPECT_EQ(folded.max, 4'000);
}

// --- fleet monitor ---------------------------------------------------------

// Writes a minimal heartbeat document a FleetMonitor can read back.
void write_heartbeat(const std::string& path, std::int64_t pid, bool running,
                     std::int64_t completed, std::int64_t total,
                     double rate_tasks_per_second, double elapsed_seconds,
                     const std::string& histograms_json = std::string()) {
  std::ostringstream doc;
  doc << "{\"schema_version\":3,\"pid\":" << pid << ",\"run\":{\"running\":"
      << (running ? "true" : "false") << ",\"total\":" << total
      << ",\"completed\":" << completed
      << ",\"failed\":0,\"resumed\":0,\"fraction\":"
      << (total > 0 ? static_cast<double>(completed) /
                          static_cast<double>(total)
                    : 0.0)
      << ",\"elapsed_seconds\":" << elapsed_seconds;
  if (rate_tasks_per_second > 0.0) {
    doc << ",\"rate_tasks_per_second\":" << rate_tasks_per_second;
  }
  doc << "},\"workers\":[{\"slot\":0,\"task_index\":1,\"matrix\":\"m\","
         "\"phase\":\"spmv\",\"elapsed_seconds\":1.0}]";
  if (!histograms_json.empty()) {
    doc << ",\"metrics\":{\"histograms\":" << histograms_json << '}';
  }
  doc << "}\n";
  std::ofstream out(path);
  out << doc.str();
}

agg::FleetConfig config_for(const std::string& dir, int shards) {
  agg::FleetConfig config;
  for (int k = 0; k < shards; ++k) {
    config.shards.push_back(
        {k, dir + "/ordo_status.shard" + std::to_string(k) + ".json"});
  }
  return config;
}

TEST(Fleet, ClassifiesLiveDoneDeadAndUnknownShards) {
  const std::string dir = fresh_dir("ordo_agg_fleet_states");
  agg::FleetConfig config = config_for(dir, 4);
  const std::int64_t own_pid = static_cast<std::int64_t>(::getpid());
  // Shard 0: fresh heartbeat, our (alive) pid → live.
  write_heartbeat(config.shards[0].heartbeat_path, own_pid, true, 3, 10,
                  5.0, 30.0);
  // Shard 1: finished (running:false) — state done even though pid is gone.
  write_heartbeat(config.shards[1].heartbeat_path, 999999999, false, 10, 10,
                  5.0, 30.0);
  // Shard 2: pid far beyond pid_max never names a live process → dead.
  write_heartbeat(config.shards[2].heartbeat_path, 999999999, true, 3, 10,
                  5.0, 30.0);
  // Shard 3: no heartbeat file at all → unknown.

  agg::FleetMonitor monitor(config);
  const agg::FleetSnapshot fleet = monitor.poll();
  ASSERT_EQ(fleet.shards.size(), 4u);
  EXPECT_EQ(fleet.shards[0].state, agg::ShardState::kLive);
  EXPECT_EQ(fleet.shards[1].state, agg::ShardState::kDone);
  EXPECT_EQ(fleet.shards[2].state, agg::ShardState::kDead);
  EXPECT_EQ(fleet.shards[3].state, agg::ShardState::kUnknown);

  // Dead-with-work is a straggler; done and unknown are not.
  EXPECT_TRUE(fleet.shards[2].straggler);
  EXPECT_FALSE(fleet.shards[0].straggler);
  EXPECT_FALSE(fleet.shards[1].straggler);
  EXPECT_FALSE(fleet.shards[3].straggler);
  EXPECT_EQ(fleet.stragglers, 1);
#if defined(ORDO_OBS_ENABLED)
  // The gauge mirrors the verdict for alert pipelines scraping metrics
  // (ORDO_GAUGE_SET compiles out with ORDO_OBS=OFF).
  EXPECT_DOUBLE_EQ(obs::gauge("obs.fleet.stragglers").value(), 1.0);
#endif
  fs::remove_all(dir);
}

TEST(Fleet, StaleHeartbeatFlagsWedgedWorker) {
  const std::string dir = fresh_dir("ordo_agg_fleet_stale");
  agg::FleetConfig config = config_for(dir, 1);
  const std::int64_t own_pid = static_cast<std::int64_t>(::getpid());
  write_heartbeat(config.shards[0].heartbeat_path, own_pid, true, 3, 10,
                  5.0, 30.0);
  // Age the file past the threshold: pid alive + old mtime = wedged, the
  // exact failure a pid check alone cannot see.
  fs::last_write_time(config.shards[0].heartbeat_path,
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(60));

  agg::FleetMonitor monitor(config);
  const agg::FleetSnapshot fleet = monitor.poll();
  ASSERT_EQ(fleet.shards.size(), 1u);
  EXPECT_EQ(fleet.shards[0].state, agg::ShardState::kStale);
  EXPECT_GT(fleet.shards[0].heartbeat_age_seconds,
            config.stale_after_seconds);
  EXPECT_TRUE(fleet.shards[0].straggler);
  fs::remove_all(dir);
}

TEST(Fleet, PaceStragglerIsJudgedAgainstTheLiveMedian) {
  const std::string dir = fresh_dir("ordo_agg_fleet_pace");
  agg::FleetConfig config = config_for(dir, 3);
  const std::int64_t own_pid = static_cast<std::int64_t>(::getpid());
  // Two shards pace at 10 tasks/s, one at 1 — with factor 3, 1 × 3 < 10.
  write_heartbeat(config.shards[0].heartbeat_path, own_pid, true, 5, 10,
                  10.0, 30.0);
  write_heartbeat(config.shards[1].heartbeat_path, own_pid, true, 5, 10,
                  10.0, 30.0);
  write_heartbeat(config.shards[2].heartbeat_path, own_pid, true, 1, 10,
                  1.0, 30.0);

  agg::FleetMonitor monitor(config);
  const agg::FleetSnapshot fleet = monitor.poll();
  ASSERT_EQ(fleet.shards.size(), 3u);
  EXPECT_FALSE(fleet.shards[0].straggler);
  EXPECT_FALSE(fleet.shards[1].straggler);
  EXPECT_TRUE(fleet.shards[2].straggler);
  EXPECT_EQ(fleet.shards[2].straggler_reason,
            "pacing behind the fleet median");
  EXPECT_EQ(fleet.stragglers, 1);

  // A worker with no completions yet (no rate field) is never pace-judged.
  write_heartbeat(config.shards[2].heartbeat_path, own_pid, true, 0, 10,
                  0.0, 30.0);
  EXPECT_EQ(monitor.poll().stragglers, 0);
  fs::remove_all(dir);
}

TEST(Fleet, MergedLatencyIsBucketExactAcrossShards) {
  const std::string dir = fresh_dir("ordo_agg_fleet_latency");
  agg::FleetConfig config = config_for(dir, 2);
  const std::int64_t own_pid = static_cast<std::int64_t>(::getpid());

  // Each shard's heartbeat carries a bucket-complete "task" histogram;
  // the expected fleet view is the union recorded into one histogram.
  obs::Histogram shard0;
  shard0.record(1'000);
  shard0.record(2'000);
  obs::Histogram shard1;
  shard1.record(2'000);
  shard1.record(900'000);
  obs::Histogram expected;
  for (const double v : {1'000, 2'000, 2'000, 900'000}) expected.record(v);
  std::string json0;
  obs::append_histogram_json(json0, shard0.snapshot(), true);
  std::string json1;
  obs::append_histogram_json(json1, shard1.snapshot(), true);
  write_heartbeat(config.shards[0].heartbeat_path, own_pid, true, 2, 4, 5.0,
                  30.0, "{\"task\":" + json0 + "}");
  write_heartbeat(config.shards[1].heartbeat_path, own_pid, true, 2, 4, 5.0,
                  30.0, "{\"task\":" + json1 + "}");

  agg::FleetMonitor monitor(config);
  const agg::FleetSnapshot fleet = monitor.poll();
  ASSERT_EQ(fleet.merged_histograms.size(), 1u);
  EXPECT_EQ(fleet.merged_histograms[0].first, "task");
  const obs::Histogram::Snapshot& merged = fleet.merged_histograms[0].second;
  const obs::Histogram::Snapshot want = expected.snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.min, want.min);
  EXPECT_EQ(merged.max, want.max);
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], want.buckets[i]) << "bucket " << i;
  }
  fs::remove_all(dir);
}

TEST(Fleet, SectionJsonParsesAndFollowsAbsentNotZero) {
  const std::string dir = fresh_dir("ordo_agg_fleet_section");
  agg::FleetConfig config = config_for(dir, 2);
  const std::int64_t own_pid = static_cast<std::int64_t>(::getpid());
  // Shard 0 has a rate; shard 1 has no completions → no rate key at all.
  write_heartbeat(config.shards[0].heartbeat_path, own_pid, true, 5, 10,
                  10.0, 30.0);
  write_heartbeat(config.shards[1].heartbeat_path, own_pid, true, 0, 10,
                  0.0, 30.0);

  agg::FleetMonitor monitor(config);
  std::string section;
  monitor.append_section(section);
  const obs::JsonValue doc = obs::parse_json(section);
  EXPECT_EQ(doc.at("schema_version").as_int(), agg::kFleetSchemaVersion);
  ASSERT_EQ(doc.at("shards").items.size(), 2u);
  const obs::JsonValue& paced = doc.at("shards").items[0];
  EXPECT_EQ(paced.at("state").text, "live");
  EXPECT_EQ(paced.at("completed").as_int(), 5);
  EXPECT_NE(paced.find("rate_tasks_per_second"), nullptr);
  const obs::JsonValue& fresh = doc.at("shards").items[1];
  EXPECT_EQ(fresh.find("rate_tasks_per_second"), nullptr);
  EXPECT_EQ(doc.at("stragglers").as_int(), 0);
  EXPECT_NE(doc.find("histograms"), nullptr);
  fs::remove_all(dir);
}

// --- concurrency stress (re-run under TSan by the sanitizer CI job) --------

TEST(TsanStressTest, HistogramConcurrentRecordSnapshotMerge) {
  obs::Histogram histogram;
  constexpr int kRecorders = 4;
  constexpr int kRecordsEach = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(kRecorders + 2);
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecordsEach; ++i) {
        histogram.record(static_cast<double>(t * 1'000 + i));
      }
    });
  }
  // Concurrent snapshots and merges race the recorders on purpose: the
  // histogram promises per-field coherence, not a consistent cut, so the
  // only invariants mid-flight are "counts never exceed the final total"
  // and "a non-empty snapshot has min <= p50 <= max".
  obs::Histogram sink;
  threads.emplace_back([&histogram, &sink, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      sink.merge(histogram.snapshot());
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&histogram, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::Histogram::Snapshot s = histogram.snapshot();
      if (s.count > kRecorders * kRecordsEach) std::abort();
      if (!s.empty() && !(s.min <= s.percentile(0.5) &&
                          s.percentile(0.5) <= s.max)) {
        std::abort();
      }
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kRecorders; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  threads[kRecorders].join();
  threads[kRecorders + 1].join();

  const obs::Histogram::Snapshot final_snapshot = histogram.snapshot();
  EXPECT_EQ(final_snapshot.count, kRecorders * kRecordsEach);
  std::int64_t bucket_total = 0;
  for (const std::int64_t b : final_snapshot.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, final_snapshot.count);
  EXPECT_EQ(final_snapshot.min, 0.0);
  EXPECT_EQ(final_snapshot.max, (kRecorders - 1) * 1'000 + kRecordsEach - 1);
}

TEST(TsanStressTest, LatencyRegistryConcurrentNamedAccess) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 2'000; ++i) {
        obs::histogram("test.agg.stress." + std::to_string(t % 3))
            .record(static_cast<double>(i));
        if (i % 64 == 0) (void)obs::sample_histograms();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::int64_t total = 0;
  for (const auto& [name, snapshot] : obs::sample_histograms()) {
    if (name.rfind("test.agg.stress.", 0) == 0) total += snapshot.count;
  }
  EXPECT_EQ(total, kThreads * 2'000);
}

}  // namespace
}  // namespace ordo
