// Tests for the multi-process sharded study (src/pipeline/shard.hpp) and
// the beyond-RAM acceptance path: byte-identity of merged results across
// shard counts, fault isolation and resume after a worker dies mid-run,
// the heartbeat collision guard, and an out-of-core generate → windowed
// RCM → measure pipeline running under an RSS budget the in-RAM CSR would
// bust. Everything here forks (and deliberately kills) processes, so the
// suite lives in its own binary (ctest label `pipeline`).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "corpus/stream.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/status/heartbeat.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/study_pipeline.hpp"
#include "reorder/reordering.hpp"
#include "sparse/storage.hpp"
#include "spmv/spmv.hpp"

namespace ordo {
namespace {

namespace fs = std::filesystem;

CorpusOptions tiny_corpus() {
  CorpusOptions options;
  options.count = 6;
  options.scale = 0.02;
  return options;
}

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_identical_measurement(const OrderingMeasurement& a,
                                  const OrderingMeasurement& b,
                                  const std::string& context) {
  EXPECT_EQ(a.min_thread_nnz, b.min_thread_nnz) << context;
  EXPECT_EQ(a.max_thread_nnz, b.max_thread_nnz) << context;
  EXPECT_EQ(a.mean_thread_nnz, b.mean_thread_nnz) << context;
  EXPECT_EQ(a.imbalance, b.imbalance) << context;
  EXPECT_EQ(a.seconds, b.seconds) << context;
  EXPECT_EQ(a.gflops_max, b.gflops_max) << context;
  EXPECT_EQ(a.gflops_mean, b.gflops_mean) << context;
  EXPECT_EQ(a.bandwidth, b.bandwidth) << context;
  EXPECT_EQ(a.profile, b.profile) << context;
  EXPECT_EQ(a.off_diagonal_nnz, b.off_diagonal_nnz) << context;
}

void expect_identical_row(const MeasurementRow& a, const MeasurementRow& b,
                          const std::string& context) {
  EXPECT_EQ(a.group, b.group) << context;
  EXPECT_EQ(a.name, b.name) << context;
  EXPECT_EQ(a.rows, b.rows) << context;
  EXPECT_EQ(a.cols, b.cols) << context;
  EXPECT_EQ(a.nnz, b.nnz) << context;
  EXPECT_EQ(a.threads, b.threads) << context;
  ASSERT_EQ(a.orderings.size(), b.orderings.size()) << context;
  for (std::size_t k = 0; k < a.orderings.size(); ++k) {
    expect_identical_measurement(a.orderings[k], b.orderings[k],
                                 context + " ordering " + std::to_string(k));
  }
}

// Byte-identity is the sharding contract, so equality here is bit-exact.
void expect_identical_results(const StudyResults& a, const StudyResults& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, rows_a] : a) {
    ASSERT_TRUE(b.count(key)) << key.first;
    const auto& rows_b = b.at(key);
    ASSERT_EQ(rows_a.size(), rows_b.size()) << key.first;
    for (std::size_t i = 0; i < rows_a.size(); ++i) {
      expect_identical_row(rows_a[i], rows_b[i],
                           key.first + "/" + rows_a[i].name);
    }
  }
}

// The merged artifact file for one (machine, kernel) pair — byte-compared
// across shard counts.
std::string results_bytes(const StudyResults& results, const std::string& dir,
                          const std::string& leaf) {
  const std::string path = dir + "/" + leaf;
  write_results_file(path, results.at({"Milan B", SpmvKernel::k1D}));
  return slurp(path);
}

TEST(Shard, MergedResultsAreByteIdenticalAcrossShardCounts) {
  const auto corpus = generate_corpus(tiny_corpus());
  const std::string dir = fresh_dir("ordo_shard_identity");

  StudyResults per_count[3];
  const int counts[3] = {1, 2, 4};
  for (int c = 0; c < 3; ++c) {
    StudyOptions options;
    options.shards = counts[c];
    options.checkpoint_dir = fresh_dir("ordo_shard_identity/shards" +
                                       std::to_string(counts[c]));
    const pipeline::StudyReport report =
        pipeline::run_sharded_study(corpus, options);
    EXPECT_TRUE(report.failures.empty());
    EXPECT_EQ(report.resumed, 0);
    EXPECT_EQ(report.computed, static_cast<int>(corpus.size()));
    per_count[c] = report.results;
  }

  expect_identical_results(per_count[0], per_count[1]);
  expect_identical_results(per_count[0], per_count[2]);
  const std::string bytes1 = results_bytes(per_count[0], dir, "s1.txt");
  EXPECT_EQ(bytes1, results_bytes(per_count[1], dir, "s2.txt"));
  EXPECT_EQ(bytes1, results_bytes(per_count[2], dir, "s4.txt"));

  // The sharded runs left a merged journal: a follow-up unsharded run in
  // the same directory replays everything instead of recomputing.
  StudyOptions replay;
  replay.shards = 1;
  replay.checkpoint_dir = dir + "/shards2";
  const pipeline::StudyReport resumed =
      pipeline::run_sharded_study(corpus, replay);
  EXPECT_EQ(resumed.resumed, static_cast<int>(corpus.size()));
  EXPECT_EQ(resumed.computed, 0);
  expect_identical_results(per_count[0], resumed.results);
  fs::remove_all(dir);
}

TEST(Shard, RefusesUnsafeConfigurations) {
  const auto corpus = generate_corpus(tiny_corpus());

  StudyOptions no_dir;
  no_dir.shards = 2;  // shard journals are the merge channel
  EXPECT_THROW(pipeline::run_sharded_study(corpus, no_dir),
               invalid_argument_error);

  StudyOptions hw;
  hw.shards = 2;
  hw.checkpoint_dir = fresh_dir("ordo_shard_refuse_hw");
  hw.hw_counters = true;  // counters only see the calling process
  EXPECT_THROW(pipeline::run_sharded_study(corpus, hw),
               invalid_argument_error);
  fs::remove_all(hw.checkpoint_dir);

  StudyOptions nested;
  nested.shards = 2;
  nested.shard_index = 0;  // a worker must never fork workers
  nested.checkpoint_dir = fresh_dir("ordo_shard_refuse_nested");
  EXPECT_THROW(pipeline::run_sharded_study(corpus, nested),
               invalid_argument_error);
  fs::remove_all(nested.checkpoint_dir);
}

TEST(Shard, CrashingWorkerTaintsOnlyItsSliceAndResumeHeals) {
  const auto corpus = generate_corpus(tiny_corpus());
  const std::string baseline_dir = fresh_dir("ordo_shard_crash_baseline");
  const std::string dir = fresh_dir("ordo_shard_crash");

  StudyOptions baseline_options;
  baseline_options.checkpoint_dir = baseline_dir;
  const pipeline::StudyReport baseline =
      pipeline::run_sharded_study(corpus, baseline_options);
  ASSERT_TRUE(baseline.failures.empty());

  // Worker 1 dies (models SIGKILL: _exit, no unwinding, no journal flush
  // beyond completed rows) after finishing one matrix of its slice
  // {1, 3, 5}. The merge must fault exactly the unfinished {3, 5}.
  ASSERT_EQ(::setenv("ORDO_SHARD_EXIT_AFTER", "1:1", 1), 0);
  StudyOptions options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  const pipeline::StudyReport crashed =
      pipeline::run_sharded_study(corpus, options);
  ASSERT_EQ(::unsetenv("ORDO_SHARD_EXIT_AFTER"), 0);

  ASSERT_EQ(crashed.failures.size(), 2u);
  for (const pipeline::StudyTaskFailure& failure : crashed.failures) {
    EXPECT_EQ(failure.index % 2, 1) << "failure leaked outside shard 1";
    EXPECT_NE(failure.error.find("shard worker 1"), std::string::npos)
        << failure.error;
  }
  // Shard 0's slice survived in full: every results vector holds exactly
  // the four finished matrices {0, 2, 4} + {1}.
  for (const auto& [key, rows] : crashed.results) {
    EXPECT_EQ(rows.size(), 4u) << key.first;
  }
  EXPECT_TRUE(fs::exists(fs::path(dir) / pipeline::kFailuresFilename));

  // Resume with the same topology: the finished rows replay from the
  // journals, only the faulted slice is recomputed, and the merged results
  // are byte-identical to the never-crashed baseline.
  const pipeline::StudyReport resumed =
      pipeline::run_sharded_study(corpus, options);
  EXPECT_TRUE(resumed.failures.empty());
  EXPECT_EQ(resumed.resumed, 4);
  EXPECT_EQ(resumed.computed, 2);
  expect_identical_results(baseline.results, resumed.results);
  EXPECT_FALSE(fs::exists(fs::path(dir) / pipeline::kFailuresFilename));
  EXPECT_EQ(results_bytes(baseline.results, baseline_dir, "base.txt"),
            results_bytes(resumed.results, dir, "resumed.txt"));
  fs::remove_all(baseline_dir);
  fs::remove_all(dir);
}

TEST(Shard, ResumeCrossesShardTopologies) {
  const auto corpus = generate_corpus(tiny_corpus());
  const std::string dir = fresh_dir("ordo_shard_topology");

  // Crash a 2-shard run, then finish the sweep with 4 shards: the journal
  // key excludes the topology, so any worker count can adopt any
  // predecessor's checkpoints.
  ASSERT_EQ(::setenv("ORDO_SHARD_EXIT_AFTER", "0:1", 1), 0);
  StudyOptions two;
  two.shards = 2;
  two.checkpoint_dir = dir;
  const pipeline::StudyReport crashed =
      pipeline::run_sharded_study(corpus, two);
  ASSERT_EQ(::unsetenv("ORDO_SHARD_EXIT_AFTER"), 0);
  ASSERT_FALSE(crashed.failures.empty());

  StudyOptions four = two;
  four.shards = 4;
  const pipeline::StudyReport finished =
      pipeline::run_sharded_study(corpus, four);
  EXPECT_TRUE(finished.failures.empty());
  EXPECT_EQ(finished.resumed + finished.computed,
            static_cast<int>(corpus.size()));
  EXPECT_GT(finished.resumed, 0);

  StudyOptions unsharded;
  unsharded.checkpoint_dir = fresh_dir("ordo_shard_topology_base");
  const pipeline::StudyReport baseline =
      pipeline::run_sharded_study(corpus, unsharded);
  expect_identical_results(baseline.results, finished.results);
  fs::remove_all(unsharded.checkpoint_dir);
  fs::remove_all(dir);
}

TEST(Shard, HeartbeatWriterRefusesLiveForeignFile) {
  const std::string dir = fresh_dir("ordo_shard_heartbeat");
  const std::string path = dir + "/ordo_status.json";

  // pid 1 is always alive and never us: the writer must refuse to clobber
  // its (purported) live heartbeat instead of tearing snapshots.
  { std::ofstream(path) << "{\"pid\": 1}\n"; }
  EXPECT_THROW(obs::status::HeartbeatWriter(path, 10.0),
               invalid_argument_error);

  // A dead owner's leftover is overwritten normally (pid far beyond
  // pid_max never names a live process), as is our own file.
  { std::ofstream(path) << "{\"pid\": 999999999}\n"; }
  {
    obs::status::HeartbeatWriter writer(path, 10.0);
    writer.stop();
  }
  { obs::status::HeartbeatWriter writer(path, 10.0); }  // own pid now
  fs::remove_all(dir);
}

TEST(Shard, WorkersSuffixTelemetryOutputsAndTracesStitch) {
  const auto corpus = generate_corpus(tiny_corpus());
  const std::string dir = fresh_dir("ordo_shard_telemetry");
  obs::set_tracing_enabled(true);
  obs::set_trace_output_path(dir + "/trace.json");
  obs::set_metrics_output_path(dir + "/metrics.json");
  obs::clear_trace_inputs();
  [[maybe_unused]] const std::int64_t tasks_before =
      obs::histogram("task").snapshot().count;

  StudyOptions options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  const pipeline::StudyReport report =
      pipeline::run_sharded_study(corpus, options);
  EXPECT_TRUE(report.failures.empty());

  // Each worker re-pointed the inherited paths at fork: the suffixed dumps
  // exist, the parent's own files are untouched (written only at its
  // finalize), so N processes never raced one output file.
  EXPECT_FALSE(fs::exists(dir + "/trace.json"));
  EXPECT_FALSE(fs::exists(dir + "/metrics.json"));
  for (int k = 0; k < 2; ++k) {
    const std::string suffix = ".shard" + std::to_string(k);
    ASSERT_TRUE(fs::exists(dir + "/trace.json" + suffix)) << k;
    ASSERT_TRUE(fs::exists(dir + "/metrics.json" + suffix)) << k;
#if defined(ORDO_OBS_ENABLED)
    // The worker's metrics dump carries its "task" histogram, buckets
    // included (the recording macro compiles out with ORDO_OBS=OFF).
    const obs::JsonValue metrics =
        obs::parse_json(slurp(dir + "/metrics.json" + suffix));
    EXPECT_NE(metrics.at("histograms").at("task").find("buckets"), nullptr)
        << k;
#endif
  }

  // Each shard trace is a complete document on its own — what a crashed
  // parent leaves behind opens without a stitch: exactly one named process
  // row, the worker's own pid, labelled "shard k".
  for (int k = 0; k < 2; ++k) {
    const obs::JsonValue shard =
        obs::parse_json(slurp(dir + "/trace.json.shard" + std::to_string(k)));
    const std::int64_t shard_pid = shard.at("pid").as_int();
    EXPECT_NE(shard_pid, static_cast<std::int64_t>(::getpid())) << k;
    int named_rows = 0;
    for (const obs::JsonValue& event : shard.at("traceEvents").items) {
      if (event.at("ph").text != "M" ||
          event.at("name").text != "process_name") {
        continue;
      }
      ++named_rows;
      EXPECT_EQ(event.at("pid").as_int(), shard_pid) << k;
      EXPECT_EQ(event.at("args").at("name").as_string(),
                "shard " + std::to_string(k));
    }
    EXPECT_EQ(named_rows, 1) << k;
  }

  // The parent registered the shard traces as trace inputs: its export has
  // three named process rows (parent + both shards) under distinct real
  // pids, and the shard spans keep their own pids.
  std::ostringstream merged;
  obs::write_chrome_trace(merged);
  const obs::JsonValue doc = obs::parse_json(merged.str());
  std::vector<std::int64_t> named_pids;
  std::vector<std::int64_t> span_pids;
  for (const obs::JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("ph").text == "M") {
      if (event.at("name").text == "process_name") {
        named_pids.push_back(event.at("pid").as_int());
      }
    } else if (event.at("pid").as_int() != ::getpid()) {
      span_pids.push_back(event.at("pid").as_int());
    }
  }
  ASSERT_EQ(named_pids.size(), 3u);
  std::sort(named_pids.begin(), named_pids.end());
  EXPECT_EQ(std::unique(named_pids.begin(), named_pids.end()),
            named_pids.end());
  EXPECT_FALSE(span_pids.empty());  // worker spans survived the stitch
  std::sort(span_pids.begin(), span_pids.end());
  span_pids.erase(std::unique(span_pids.begin(), span_pids.end()),
                  span_pids.end());
  EXPECT_EQ(span_pids.size(), 2u);  // one distinct pid per shard

#if defined(ORDO_OBS_ENABLED)
  // The post-waitpid fold: both workers' final heartbeat histograms landed
  // in the parent's registry, one "task" sample per computed matrix.
  EXPECT_EQ(obs::histogram("task").snapshot().count,
            tasks_before + static_cast<std::int64_t>(corpus.size()));
#endif

  obs::set_tracing_enabled(false);
  obs::set_trace_output_path(std::string());
  obs::set_metrics_output_path(std::string());
  obs::clear_trace_inputs();
  fs::remove_all(dir);
}

#if defined(ORDO_OBS_ENABLED)
TEST(Shard, PreForkSpansStayOnTheParentRow) {
  // A span the parent closed before forking is the parent's alone: the
  // workers start with empty span buffers, so the stitched trace shows it
  // once, under the parent's pid, not once more per shard row.
  const std::string dir = fresh_dir("ordo_shard_prefork_spans");
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  obs::clear_trace_inputs();
  obs::set_trace_output_path(dir + "/trace.json");
  const auto corpus = generate_corpus(tiny_corpus());

  StudyOptions options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  EXPECT_TRUE(pipeline::run_sharded_study(corpus, options).failures.empty());

  std::ostringstream merged;
  obs::write_chrome_trace(merged);
  const obs::JsonValue doc = obs::parse_json(merged.str());
  std::vector<std::int64_t> generate_pids;
  for (const obs::JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("ph").text != "M" &&
        event.at("name").as_string() == "corpus/generate") {
      generate_pids.push_back(event.at("pid").as_int());
    }
  }
  ASSERT_EQ(generate_pids.size(), 1u);
  EXPECT_EQ(generate_pids.front(), static_cast<std::int64_t>(::getpid()));

  obs::set_tracing_enabled(false);
  obs::set_trace_output_path(std::string());
  obs::clear_trace_inputs();
  obs::clear_trace();
  fs::remove_all(dir);
}
#endif

TEST(Shard, PerShardFileNamesAreStable) {
  EXPECT_EQ(pipeline::shard_journal_filename(3), "study_journal.shard3.jsonl");
  EXPECT_EQ(pipeline::shard_failures_filename(0),
            "study_failures.shard0.jsonl");
  EXPECT_THROW(pipeline::shard_journal_filename(-1), invalid_argument_error);

  ASSERT_EQ(::unsetenv("ORDO_STATUS_FILE"), 0);
  EXPECT_EQ(pipeline::shard_heartbeat_path("/ckpt", 2),
            "/ckpt/ordo_status.shard2.json");
  ASSERT_EQ(::setenv("ORDO_STATUS_FILE", "/run/ordo.json", 1), 0);
  EXPECT_EQ(pipeline::shard_heartbeat_path("/ckpt", 2),
            "/run/ordo.json.shard2");
  ASSERT_EQ(::unsetenv("ORDO_STATUS_FILE"), 0);
}

// --- the beyond-RAM acceptance test ---------------------------------------
//
// A banded matrix whose CSR footprint is ~2.4x an RLIMIT_DATA budget is
// generated, reordered with windowed RCM, and measured — entirely through
// the mmap backend, in a forked child so the budget cannot leak into other
// tests. The child first proves the budget binds (an in-RAM CSR allocation
// of the estimated size must fail), then runs the out-of-core pipeline,
// which must succeed: spill files are streamed through O(rows) buffers and
// mapped read-only, which Linux does not charge against RLIMIT_DATA.
TEST(Shard, OutOfCoreStudySurvivesRssBudgetTheRamPathBusts) {
  const std::string dir = fresh_dir("ordo_shard_rss_budget");

  StreamedBandedParams params;
  params.n = 40000;
  params.half_bandwidth = 120;
  params.density = 1.0;
  const std::int64_t csr_bytes = estimated_banded_csr_bytes(params);
  const rlim_t budget = 48u << 20;
  ASSERT_GT(csr_bytes, static_cast<std::int64_t>(2 * budget));

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: every failure is a distinct exit code; no gtest machinery.
    struct rlimit limit = {budget, budget};
    if (::setrlimit(RLIMIT_DATA, &limit) != 0) ::_exit(10);
    // The budget must actually bind: the in-RAM CSR cannot be allocated.
    if (void* heap = std::malloc(static_cast<std::size_t>(csr_bytes))) {
      std::free(heap);
      ::_exit(11);
    }
    try {
      const CsrMatrix a = generate_banded_streamed(params, dir, "budget");
      if (std::string(a.storage_backend()) != "mmap") ::_exit(12);
      const Permutation perm = windowed_rcm_ordering(a, 4096);
      if (!is_valid_permutation(perm)) ::_exit(13);
      Ordering ordering;
      ordering.row_perm = perm;
      ordering.col_perm = perm;
      ordering.symmetric = true;
      const CsrMatrix reordered =
          apply_ordering_out_of_core(a, ordering, dir, "budget_rcm");
      if (std::string(reordered.storage_backend()) != "mmap") ::_exit(14);
      if (reordered.num_nonzeros() != a.num_nonzeros()) ::_exit(15);
      // Measure through the mapping: one serial SpMV touches every byte of
      // the reordered spill file.
      std::vector<value_t> x(static_cast<std::size_t>(params.n), 1.0);
      std::vector<value_t> y(x.size(), 0.0);
      spmv_serial(reordered, x, y);
      double checksum = 0.0;
      for (const value_t v : y) checksum += v;
      if (!(checksum != 0.0) || checksum != checksum) ::_exit(16);
    } catch (const std::exception&) {
      ::_exit(17);
    }
    ::_exit(0);
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "out-of-core pipeline failed under the RSS budget (see exit-code "
         "map in the test body)";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ordo
