// Multi-process sharded execution of the study sweep (run_study --shards).
//
// Process diagram (N = options.shards):
//
//   parent (orchestrator)
//     ├── suspend status consumers, fork N workers, resume consumers
//     ├── register the "fleet" /stats section (obs/agg/fleet.hpp polls the
//     │   worker heartbeats: progress, liveness, stragglers, merged
//     │   histograms) and the workers' trace files as trace inputs
//     ├── waitpid × N  (a crashed worker faults only its own slice)
//     ├── fold the workers' final histograms into its own registry
//     └── merge: replay every shard journal + failure file in corpus
//         order, synthesize StudyTaskFailure rows for a crashed worker's
//         unfinished slice, write the merged study_journal.jsonl and
//         study_failures.jsonl; finalize()'s one trace export appends
//         the shard traces into one multi-process timeline (obs/trace.hpp)
//   worker k (forked child, _exits, never returns)
//     ├── heartbeat → <checkpoint_dir>/ordo_status.shard<k>.json
//     ├── ORDO_TRACE / ORDO_METRICS re-pointed to <path>.shard<k>
//     └── run_study_pipeline over the slice { i : i mod N == k },
//         journal → study_journal.shard<k>.jsonl
//
// Protocol invariants (docs/DESIGN.md §14):
//   * The slice function is index-deterministic (i mod N), so the same
//     (corpus, N) always produces the same ownership and the merge needs no
//     coordination beyond the journals.
//   * Shard journals share the merged journal's fingerprint key — the key
//     excludes shards/jobs — so any worker topology can resume any
//     predecessor's checkpoints (shard files first, merged file second).
//   * All study measurements come from the deterministic analytical model
//     (host hw counters are opt-in and refused with sharding), so the
//     merged results are byte-identical to a --shards 1 run for every N,
//     including a resume after a worker was SIGKILLed mid-run.
//   * Workers leave via _exit after one explicit obs::finalize(): their
//     trace/metrics dumps go to the .shard<k>-suffixed paths set at fork,
//     never the parent's files, and no inherited consumer thread exists
//     (the parent suspends its listener/heartbeat around the fork window).
//     Each .shard<k> trace is a complete document labelled "shard k", so
//     a crashed parent's leftovers open on their own, unstitched.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "pipeline/study_pipeline.hpp"

namespace ordo::pipeline {

/// Heartbeat file of shard worker `shard_index`: `$ORDO_STATUS_FILE.shard<k>`
/// when ORDO_STATUS_FILE is set (so an operator watching one file finds the
/// per-shard files next to it), else
/// `<checkpoint_dir>/ordo_status.shard<k>.json`. The parent's "fleet"
/// status section reads the same paths back.
std::string shard_heartbeat_path(const std::string& checkpoint_dir,
                                 int shard_index);

/// Runs the sweep across options.shards worker processes and merges their
/// journals into one StudyReport (plus the merged study_journal.jsonl /
/// study_failures.jsonl under options.checkpoint_dir). Falls through to
/// run_study_pipeline when shards <= 1. Throws invalid_argument_error when
/// shards > 1 without a checkpoint_dir, inside a shard worker, or with
/// options.hw_counters set (host counters measure only the calling
/// process, which would silently drop N-1 shards' worth of samples).
StudyReport run_sharded_study(const std::vector<CorpusEntry>& corpus,
                              const StudyOptions& options);

}  // namespace ordo::pipeline
