#include "pipeline/shard.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "engine/registry.hpp"
#include "obs/agg/fleet.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "pipeline/journal.hpp"

namespace ordo::pipeline {
namespace {

namespace fs = std::filesystem;

/// How worker k left: clean, or a reason string for the synthesized
/// failure rows of its unfinished slice.
struct ShardExit {
  bool crashed = false;
  std::string reason;
};

ShardExit describe_exit(int wait_status) {
  ShardExit result;
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code != 0) {
      result.crashed = true;
      result.reason = "exited with status " + std::to_string(code);
    }
  } else if (WIFSIGNALED(wait_status)) {
    result.crashed = true;
    result.reason =
        "killed by signal " + std::to_string(WTERMSIG(wait_status));
  } else {
    result.crashed = true;
    result.reason = "ended with unrecognized wait status " +
                    std::to_string(wait_status);
  }
  return result;
}

/// The worker body. Runs inside the forked child; never returns.
[[noreturn]] void run_shard_worker(const std::vector<CorpusEntry>& corpus,
                                   const StudyOptions& options,
                                   int shard_index) {
  int code = 0;
  const std::string suffix = ".shard" + std::to_string(shard_index);
  try {
    // Drop the consumer state inherited from the parent (nothing is
    // running — the parent suspended its consumers before forking — but
    // the parked restart configuration must not leak into the child) and
    // start this worker's own heartbeat.
    obs::status::stop();
    // Start this worker's registry and span buffers empty: what the parent
    // recorded before the fork stays the parent's, so the post-waitpid fold
    // adds only the workers' own samples instead of counting the parent's
    // again, and the stitched trace shows each pre-fork span once, on the
    // parent's row.
    obs::reset_metrics();
    obs::clear_trace();
    // Re-point the inherited per-process outputs: N workers writing the
    // parent's ORDO_TRACE / ORDO_METRICS paths would clobber each other
    // (and the parent's own dump), so each gets the journal/heartbeat
    // naming scheme's .shard<k> suffix. The bench report stays with the
    // parent — a worker writing BENCH_*.json would shadow the real one.
    if (const std::string trace = obs::trace_output_path(); !trace.empty()) {
      obs::set_trace_output_path(trace + suffix);
    }
    if (const std::string metrics = obs::metrics_output_path();
        !metrics.empty()) {
      obs::set_metrics_output_path(metrics + suffix);
    }
    obs::set_bench_report_output_path(std::string());
    obs::set_trace_process_label("shard " + std::to_string(shard_index));
    obs::status::start_heartbeat(
        shard_heartbeat_path(options.checkpoint_dir, shard_index),
        /*interval_seconds=*/0.5);
    StudyOptions worker_options = options;
    worker_options.shard_index = shard_index;
    run_study_pipeline(corpus, worker_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ordo: shard %d failed: %s\n", shard_index,
                 e.what());
    code = 1;
  }
  // Orderly export before _exit skips the atexit chain: one final heartbeat
  // snapshot plus this worker's own (suffixed) trace and metrics dumps —
  // the parent's files are untouched because the paths were re-pointed
  // above.
  obs::finalize();
  std::fflush(nullptr);
  ::_exit(code);
}

/// The fleet monitor's shard list: heartbeat paths in shard order.
obs::agg::FleetConfig fleet_config(const std::string& checkpoint_dir,
                                   int shards) {
  obs::agg::FleetConfig config;
  config.shards.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    config.shards.push_back({k, shard_heartbeat_path(checkpoint_dir, k)});
  }
  return config;
}

}  // namespace

std::string shard_heartbeat_path(const std::string& checkpoint_dir,
                                 int shard_index) {
  require(shard_index >= 0, "pipeline: negative shard index");
  if (const char* base = std::getenv("ORDO_STATUS_FILE")) {
    if (*base != '\0') {
      return std::string(base) + ".shard" + std::to_string(shard_index);
    }
  }
  return (fs::path(checkpoint_dir) /
          ("ordo_status.shard" + std::to_string(shard_index) + ".json"))
      .string();
}

StudyReport run_sharded_study(const std::vector<CorpusEntry>& corpus,
                              const StudyOptions& options) {
  if (options.shards <= 1) return run_study_pipeline(corpus, options);
  require(options.shard_index < 0,
          "pipeline: run_sharded_study cannot be nested inside a shard "
          "worker");
  require(!options.checkpoint_dir.empty(),
          "pipeline: --shards needs a checkpoint directory (the shard "
          "journals are the merge channel)");
  require(!options.hw_counters,
          "pipeline: --shards is incompatible with host hardware counters "
          "(a counter session observes one process; N-1 shards' samples "
          "would be dropped silently)");
  // Fail configuration errors in the parent, once, instead of N times in
  // the workers: resolve the kernel set (throws on unknown ids) and apply
  // the same determinism refusal run_study_pipeline applies.
  for (const SpmvKernel& kernel : study_kernels(options)) {
    const engine::KernelDesc& desc = engine::kernel(kernel.id());
    require(desc.caps.deterministic || options.allow_nondeterministic,
            "pipeline: kernel '" + kernel.id() +
                "' is nondeterministic (" + desc.summary +
                "), which breaks the shard merge's byte-identical "
                "guarantee; pass --allow-nondeterministic to sweep it "
                "anyway");
  }

  const int shards = options.shards;
  const std::size_t n = corpus.size();
  fs::create_directories(options.checkpoint_dir);
  const JournalKey key = make_journal_key(corpus, options);
  auto shard_of = [&](std::size_t i) {
    return static_cast<int>(i % static_cast<std::size_t>(shards));
  };
  auto journal_path = [&](int k) {
    return (fs::path(options.checkpoint_dir) / shard_journal_filename(k))
        .string();
  };
  auto failures_path = [&](int k) {
    return (fs::path(options.checkpoint_dir) / shard_failures_filename(k))
        .string();
  };

  // Pre-scan: count the records the workers will replay (mirroring their
  // replay logic exactly — shard journals first, then the merged journal)
  // so the report's resumed/computed split matches an unsharded run's.
  // Also clear stale per-shard failure and heartbeat files: a leftover
  // failure file would be merged as if this run produced it, and a
  // leftover heartbeat would feed the aggregation section until the new
  // worker's first write.
  std::vector<char> pre_done(n, 0);
  for (int k = 0; k < shards; ++k) {
    std::error_code ignored;
    fs::remove(failures_path(k), ignored);
    fs::remove(shard_heartbeat_path(options.checkpoint_dir, k), ignored);
    if (!options.resume) continue;
    for (const JournalRecord& record : load_journal(journal_path(k), key)) {
      const auto idx = static_cast<std::size_t>(record.index);
      if (shard_of(idx) == k) pre_done[idx] = 1;
    }
  }
  StudyReport report;
  if (options.resume) {
    const std::string merged =
        (fs::path(options.checkpoint_dir) / kJournalFilename).string();
    for (const JournalRecord& record : load_journal(merged, key)) {
      pre_done[static_cast<std::size_t>(record.index)] = 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (pre_done[i]) ++report.resumed;
    }
  }

  // Fork window: no status service thread may exist while forking (the
  // child would inherit the memory of a thread that does not run there).
  obs::status::suspend_consumers();
  std::vector<pid_t> pids(static_cast<std::size_t>(shards), -1);
  for (int k = 0; k < shards; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Unwind the workers already forked, restore the consumers, then
      // surface the failure.
      for (int j = 0; j < k; ++j) {
        ::kill(pids[static_cast<std::size_t>(j)], SIGKILL);
        int status = 0;
        ::waitpid(pids[static_cast<std::size_t>(j)], &status, 0);
      }
      obs::status::resume_consumers();
      require(false, "pipeline: fork failed for shard " + std::to_string(k));
    }
    if (pid == 0) {
      run_shard_worker(corpus, options, k);  // never returns
    }
    pids[static_cast<std::size_t>(k)] = pid;
  }
  obs::status::resume_consumers();
  obs::logf(obs::LogLevel::kProgress,
            "sharded study: %d workers over %zu matrices (checkpoints in %s)",
            shards, n, options.checkpoint_dir.c_str());
  // Fleet telemetry: every parent /stats snapshot polls the worker
  // heartbeats through the monitor — per-shard progress and liveness, a
  // straggler verdict, and the bucket-exact merge of the workers'
  // histograms. The monitor outlives this call inside the section lambda
  // (late polls after end_run still see the final fleet state).
  auto fleet_monitor = std::make_shared<obs::agg::FleetMonitor>(
      fleet_config(options.checkpoint_dir, shards));
  obs::status::register_section(
      "fleet", [fleet_monitor](std::string& out) {
        fleet_monitor->append_section(out);
      });
  // Each worker's trace file (suffixed at fork) is an input of the
  // parent's finalize-time export, so ORDO_TRACE on a sharded run yields
  // one multi-process timeline at the configured path.
  if (const std::string trace = obs::trace_output_path(); !trace.empty()) {
    obs::set_trace_process_label("parent");
    for (int k = 0; k < shards; ++k) {
      obs::register_trace_input(trace + ".shard" + std::to_string(k),
                                "shard " + std::to_string(k));
    }
  }

  std::vector<ShardExit> exits(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    int status = 0;
    const pid_t waited =
        ::waitpid(pids[static_cast<std::size_t>(k)], &status, 0);
    if (waited < 0) {
      exits[static_cast<std::size_t>(k)] = {true, "waitpid failed"};
      continue;
    }
    exits[static_cast<std::size_t>(k)] = describe_exit(status);
    if (exits[static_cast<std::size_t>(k)].crashed) {
      obs::logf(obs::LogLevel::kProgress, "shard %d %s", k,
                exits[static_cast<std::size_t>(k)].reason.c_str());
    }
  }

  // Fold the workers' final histograms (their last heartbeat snapshots,
  // bucket-exact) into the parent's own registry: the closing /stats
  // snapshot, ordo_metrics.json and BENCH report then carry the same
  // fleet-wide histograms an unsharded run records, not the parent's empty
  // ones.
  for (const auto& [name, snapshot] :
       fleet_monitor->poll().merged_histograms) {
    obs::histogram(name).merge(snapshot);
  }

  // Deterministic merge: replay every shard journal and failure file into
  // per-index slots, synthesize failure rows for a crashed worker's
  // unfinished indices, then walk the slots in corpus order — the same
  // slot-merge discipline run_study_pipeline uses, so the result layout is
  // byte-identical to an unsharded run's.
  std::vector<std::optional<MatrixStudyRows>> slots(n);
  std::vector<std::optional<StudyTaskFailure>> failure_slots(n);
  for (int k = 0; k < shards; ++k) {
    for (JournalRecord& record : load_journal(journal_path(k), key)) {
      const auto idx = static_cast<std::size_t>(record.index);
      if (shard_of(idx) != k) continue;
      slots[idx] = std::move(record.rows);
    }
    for (StudyTaskFailure& failure : load_failures_file(failures_path(k))) {
      if (failure.index < 0 || static_cast<std::size_t>(failure.index) >= n) {
        continue;
      }
      const auto idx = static_cast<std::size_t>(failure.index);
      if (shard_of(idx) != k || slots[idx]) continue;
      failure_slots[idx] = std::move(failure);
    }
    const ShardExit& worker_exit = exits[static_cast<std::size_t>(k)];
    if (!worker_exit.crashed) continue;
    for (std::size_t i = 0; i < n; ++i) {
      if (shard_of(i) != k || slots[i] || failure_slots[i]) continue;
      StudyTaskFailure failure;
      failure.index = static_cast<int>(i);
      failure.group = corpus[i].group;
      failure.name = corpus[i].name;
      failure.error = "shard worker " + std::to_string(k) + " " +
                      worker_exit.reason + " before finishing this matrix";
      failure_slots[i] = std::move(failure);
    }
  }

  // Merged journal first, while the slots still own their rows: the same
  // study_journal.jsonl an unsharded checkpointed run leaves behind,
  // rebuilt from the shard files in corpus order (the results build below
  // moves the rows out of the slots). Shard journals are kept — they are
  // the resume state of a later sharded run.
  {
    JournalWriter journal(
        (fs::path(options.checkpoint_dir) / kJournalFilename).string(), key);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[i]) journal.append({static_cast<int>(i), *slots[i]});
    }
  }

  const auto& machines = table2_architectures();
  for (const Architecture& arch : machines) {
    for (const SpmvKernel& kernel : study_kernels(options)) {
      report.results[{arch.name, kernel}] = {};
    }
  }
  std::size_t done_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots[i]) continue;
    ++done_total;
    for (auto& [result_key, row] : *slots[i]) {
      report.results[result_key].push_back(std::move(row));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (failure_slots[i]) {
      report.failures.push_back(std::move(*failure_slots[i]));
    }
  }
  report.computed =
      static_cast<int>(done_total) - report.resumed;
  const std::string merged_failures =
      (fs::path(options.checkpoint_dir) / kFailuresFilename).string();
  if (report.failures.empty()) {
    std::error_code ignored;
    fs::remove(merged_failures, ignored);
  } else {
    write_failures_file(merged_failures, report.failures);
  }
  return report;
}

}  // namespace ordo::pipeline
