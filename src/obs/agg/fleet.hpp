// Fleet snapshots: the parent of a sharded study reads its workers'
// heartbeat files back and composes one schema-versioned "fleet" section
// into its own /stats document, so an N-process run is observable from a
// single endpoint.
//
// Per shard the monitor reports progress (total/completed/failed/resumed/
// fraction), the workers' current phases, the heartbeat's EWMA task rate,
// and a liveness verdict derived from two independent signals:
//
//   heartbeat mtime — how stale the last complete snapshot is;
//   pid             — whether the process named in the snapshot still
//                     exists (kill(pid, 0)).
//
//   state   meaning
//   ------- ----------------------------------------------------------
//   unknown no heartbeat document yet (worker still starting, or file
//           unreadable/torn)
//   live    fresh heartbeat, pid alive
//   stale   pid alive but the heartbeat is older than the threshold —
//           the worker is wedged or starved, not gone
//   dead    the pid no longer exists but the run was not finished
//   done    the heartbeat's final snapshot says running:false
//
// A straggler detector runs on every poll: a live shard pacing worse than
// straggler_factor× slower than the fleet's median rate, or any stale/dead
// shard with unfinished work, counts as a straggler — surfaced as a
// structured warning on the state transition (never per poll) and as the
// `obs.fleet.stragglers` gauge.
//
// The monitor also merges every histogram the workers' heartbeats carry
// (bucket sums, exact — see obs/metrics.hpp) into fleet-wide ones.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_safety.hpp"
#include "obs/metrics.hpp"

namespace ordo::obs::agg {

/// Layout version of the "fleet" section; bumped whenever a field changes
/// meaning so ordo_top --check can detect drift. v2: "latency" became
/// "histograms" and carries every histogram, not only task/phase times.
inline constexpr int kFleetSchemaVersion = 2;

struct FleetShardConfig {
  int shard = -1;
  std::string heartbeat_path;
};

struct FleetConfig {
  std::vector<FleetShardConfig> shards;
  /// A heartbeat older than this marks its shard stale. Workers write
  /// every 0.5 s, so 5 s is ten missed intervals — scheduling noise never
  /// trips it, a wedged worker trips it on the next poll.
  double stale_after_seconds = 5.0;
  /// A live shard pacing this many times slower than the fleet's median
  /// task rate is a straggler.
  double straggler_factor = 3.0;
  /// Pace verdicts are suppressed before a shard has run this long (the
  /// first task always looks infinitely slow).
  double min_elapsed_seconds = 2.0;
};

enum class ShardState { kUnknown, kLive, kStale, kDead, kDone };
const char* shard_state_name(ShardState state);

/// One shard as the monitor last observed it.
struct ShardObservation {
  int shard = -1;
  ShardState state = ShardState::kUnknown;
  bool heartbeat = false;  ///< a complete heartbeat document was read
  std::int64_t pid = 0;
  bool pid_alive = false;
  double heartbeat_age_seconds = 0.0;
  bool running = false;
  std::int64_t total = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t resumed = 0;
  double fraction = 0.0;
  double elapsed_seconds = 0.0;
  bool has_rate = false;  ///< absent until the worker's first completion
  double rate_tasks_per_second = 0.0;
  std::string phases;  ///< comma-joined phases of the shard's in-flight tasks
  bool straggler = false;
  std::string straggler_reason;  ///< set when straggler
  /// The worker's histograms, read bucket-complete from its heartbeat.
  std::vector<NamedHistogram> histograms;
};

struct FleetSnapshot {
  std::vector<ShardObservation> shards;
  int stragglers = 0;
  /// Exact bucket-sum merge of every shard's histograms, keyed by name.
  std::vector<NamedHistogram> merged_histograms;
};

/// The parent-side poller. Thread-safe: poll() and append_section() may be
/// called from any snapshot/listener thread; per-shard state memory (for
/// transition-edge warnings) is internal.
class FleetMonitor {
 public:
  explicit FleetMonitor(FleetConfig config);

  /// Reads every shard heartbeat, derives states and straggler verdicts,
  /// logs state-transition warnings, updates the obs.fleet.stragglers
  /// gauge, and returns the composed snapshot.
  FleetSnapshot poll();

  /// poll() + JSON emission of the "fleet" /stats section:
  /// {"schema_version":2,"shards":[...],"stragglers":N,"histograms":{...}}.
  void append_section(std::string& out);

 private:
  mutable Mutex mutex_;
  /// Previous poll's verdicts, indexed like config_.shards — warnings fire
  /// on the edge (state change / straggler onset), never per poll.
  std::vector<ShardState> last_state_ ORDO_GUARDED_BY(mutex_);
  std::vector<char> last_straggler_ ORDO_GUARDED_BY(mutex_);
  // ordo-analyze: allow(guard-coverage) set in the constructor, then
  // read-only — every poll() reads it without synchronization by design.
  FleetConfig config_;
};

}  // namespace ordo::obs::agg
