#include "obs/agg/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/status/heartbeat.hpp"
#include "sparse/types.hpp"

namespace ordo::obs::agg {
namespace {

namespace fs = std::filesystem;

/// Seconds since `path` was last renamed into place; nullopt when the file
/// does not exist (or mtime is unreadable).
std::optional<double> heartbeat_age_seconds(const std::string& path) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return std::nullopt;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

std::optional<JsonValue> read_heartbeat(const std::string& path) {
  try {
    return read_json_file(path);
  } catch (const std::exception&) {
    // Absent, or torn mid-write: the atomic-rename protocol makes the
    // latter rare, but a reader racing the very first write can still lose.
    return std::nullopt;
  }
}

/// Fills the progress fields of `obs` from one parsed heartbeat document.
void read_observation_fields(const JsonValue& doc, ShardObservation& obs) {
  if (const JsonValue* pid = doc.find("pid")) obs.pid = pid->as_int();
  if (const JsonValue* run = doc.find("run")) {
    if (const JsonValue* v = run->find("running")) obs.running = v->boolean;
    if (const JsonValue* v = run->find("total")) obs.total = v->as_int();
    if (const JsonValue* v = run->find("completed")) {
      obs.completed = v->as_int();
    }
    if (const JsonValue* v = run->find("failed")) obs.failed = v->as_int();
    if (const JsonValue* v = run->find("resumed")) obs.resumed = v->as_int();
    if (const JsonValue* v = run->find("fraction")) {
      obs.fraction = v->as_double();
    }
    if (const JsonValue* v = run->find("elapsed_seconds")) {
      obs.elapsed_seconds = v->as_double();
    }
    if (const JsonValue* v = run->find("rate_tasks_per_second")) {
      obs.has_rate = true;
      obs.rate_tasks_per_second = v->as_double();
    }
  }
  if (const JsonValue* workers = doc.find("workers")) {
    for (const JsonValue& worker : workers->items) {
      const JsonValue* phase = worker.find("phase");
      if (phase == nullptr || phase->text.empty()) continue;
      if (!obs.phases.empty()) obs.phases += ',';
      obs.phases += phase->text;
    }
  }
  const JsonValue* metrics = doc.find("metrics");
  const JsonValue* histograms =
      metrics != nullptr ? metrics->find("histograms") : nullptr;
  if (histograms != nullptr) {
    for (const auto& [name, value] : histograms->members) {
      try {
        ParsedHistogram parsed = parse_histogram_json(value);
        if (parsed.has_buckets && !parsed.snapshot.empty()) {
          obs.histograms.emplace_back(name, std::move(parsed.snapshot));
        }
      } catch (const std::exception&) {
        // A malformed entry (schema drift, truncation) drops that one
        // histogram, never the whole observation.
      }
    }
  }
}

double median_of_rates(std::vector<double> rates) {
  const std::size_t mid = rates.size() / 2;
  std::nth_element(rates.begin(), rates.begin() + mid, rates.end());
  return rates[mid];
}

void append_kv_int(std::string& out, const char* key, std::int64_t value) {
  append_json_string(out, key);
  out += ':';
  out += std::to_string(value);
}

void append_kv_double(std::string& out, const char* key, double value) {
  append_json_string(out, key);
  out += ':';
  append_json_double(out, value);
}

}  // namespace

const char* shard_state_name(ShardState state) {
  switch (state) {
    case ShardState::kUnknown: return "unknown";
    case ShardState::kLive: return "live";
    case ShardState::kStale: return "stale";
    case ShardState::kDead: return "dead";
    case ShardState::kDone: return "done";
  }
  return "unknown";
}

FleetMonitor::FleetMonitor(FleetConfig config) : config_(std::move(config)) {
  MutexLock lock(mutex_);
  last_state_.assign(config_.shards.size(), ShardState::kUnknown);
  last_straggler_.assign(config_.shards.size(), 0);
}

FleetSnapshot FleetMonitor::poll() {
  FleetSnapshot fleet;
  fleet.shards.reserve(config_.shards.size());
  for (const FleetShardConfig& shard : config_.shards) {
    ShardObservation obs;
    obs.shard = shard.shard;
    const std::optional<JsonValue> doc = read_heartbeat(shard.heartbeat_path);
    const std::optional<double> age =
        heartbeat_age_seconds(shard.heartbeat_path);
    if (!doc || !age) {
      obs.state = ShardState::kUnknown;
      fleet.shards.push_back(std::move(obs));
      continue;
    }
    obs.heartbeat = true;
    obs.heartbeat_age_seconds = *age;
    read_observation_fields(*doc, obs);
    obs.pid_alive = status::pid_alive(obs.pid);
    if (!obs.running) {
      obs.state = ShardState::kDone;
    } else if (!obs.pid_alive) {
      obs.state = ShardState::kDead;
    } else if (obs.heartbeat_age_seconds > config_.stale_after_seconds) {
      obs.state = ShardState::kStale;
    } else {
      obs.state = ShardState::kLive;
    }
    fleet.shards.push_back(std::move(obs));
  }

  // Pace verdicts need the whole fleet: the median task rate of the live
  // shards is the yardstick a slow shard is measured against.
  std::vector<double> live_rates;
  for (const ShardObservation& obs : fleet.shards) {
    if (obs.state == ShardState::kLive && obs.has_rate &&
        obs.elapsed_seconds >= config_.min_elapsed_seconds) {
      live_rates.push_back(obs.rate_tasks_per_second);
    }
  }
  const bool have_median = live_rates.size() >= 2;
  const double median_rate =
      have_median ? median_of_rates(live_rates) : 0.0;
  for (ShardObservation& obs : fleet.shards) {
    switch (obs.state) {
      case ShardState::kDead:
        obs.straggler = true;
        obs.straggler_reason = "process died with unfinished work";
        break;
      case ShardState::kStale:
        obs.straggler = true;
        obs.straggler_reason = "heartbeat stale";
        break;
      case ShardState::kLive:
        if (have_median && obs.has_rate &&
            obs.elapsed_seconds >= config_.min_elapsed_seconds &&
            obs.rate_tasks_per_second * config_.straggler_factor <
                median_rate) {
          obs.straggler = true;
          obs.straggler_reason = "pacing behind the fleet median";
        }
        break;
      case ShardState::kUnknown:
      case ShardState::kDone:
        break;
    }
    if (obs.straggler) ++fleet.stragglers;
  }

  // Exact fleet-wide histograms: bucket sums over every shard's.
  std::map<std::string, Histogram::Snapshot> merged;
  for (const ShardObservation& obs : fleet.shards) {
    for (const auto& [name, snapshot] : obs.histograms) {
      merged[name].merge(snapshot);
    }
  }
  fleet.merged_histograms.assign(merged.begin(), merged.end());

  // Edge-triggered warnings: one structured line per state change or
  // straggler onset, so a wedged shard does not flood the log every poll.
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < fleet.shards.size(); ++i) {
      const ShardObservation& obs = fleet.shards[i];
      if (i < last_state_.size() && obs.state != last_state_[i] &&
          (obs.state == ShardState::kDead ||
           obs.state == ShardState::kStale)) {
        logf(LogLevel::kProgress,
             "fleet: shard %d is %s (heartbeat %.1fs old, pid %lld %s)",
             obs.shard, shard_state_name(obs.state),
             obs.heartbeat_age_seconds, static_cast<long long>(obs.pid),
             obs.pid_alive ? "alive" : "gone");
      }
      if (i < last_straggler_.size() && obs.straggler &&
          last_straggler_[i] == 0) {
        logf(LogLevel::kProgress, "fleet: shard %d flagged straggler: %s",
             obs.shard, obs.straggler_reason.c_str());
      }
      if (i < last_state_.size()) last_state_[i] = obs.state;
      if (i < last_straggler_.size()) {
        last_straggler_[i] = obs.straggler ? 1 : 0;
      }
    }
  }
  ORDO_GAUGE_SET("obs.fleet.stragglers",
                 static_cast<double>(fleet.stragglers));
  return fleet;
}

void FleetMonitor::append_section(std::string& out) {
  const FleetSnapshot fleet = poll();
  out += "{\"schema_version\":";
  out += std::to_string(kFleetSchemaVersion);
  out += ",\"shards\":[";
  bool first = true;
  for (const ShardObservation& obs : fleet.shards) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv_int(out, "shard", obs.shard);
    out += ',';
    append_json_string(out, "state");
    out += ':';
    append_json_string(out, shard_state_name(obs.state));
    out += ",\"heartbeat\":";
    out += obs.heartbeat ? "true" : "false";
    if (!obs.heartbeat) {
      out += '}';
      continue;
    }
    out += ',';
    append_kv_int(out, "pid", obs.pid);
    out += ",\"pid_alive\":";
    out += obs.pid_alive ? "true" : "false";
    out += ',';
    append_kv_double(out, "heartbeat_age_seconds", obs.heartbeat_age_seconds);
    out += ",\"running\":";
    out += obs.running ? "true" : "false";
    out += ',';
    append_kv_int(out, "total", obs.total);
    out += ',';
    append_kv_int(out, "completed", obs.completed);
    out += ',';
    append_kv_int(out, "failed", obs.failed);
    out += ',';
    append_kv_int(out, "resumed", obs.resumed);
    out += ',';
    append_kv_double(out, "fraction", obs.fraction);
    out += ',';
    append_kv_double(out, "elapsed_seconds", obs.elapsed_seconds);
    // Absent-not-zero: rate and phases appear only once the worker has
    // one completion / an in-flight task to report.
    if (obs.has_rate) {
      out += ',';
      append_kv_double(out, "rate_tasks_per_second",
                       obs.rate_tasks_per_second);
    }
    if (!obs.phases.empty()) {
      out += ',';
      append_json_string(out, "phases");
      out += ':';
      append_json_string(out, obs.phases);
    }
    if (obs.straggler) {
      out += ",\"straggler\":true,";
      append_json_string(out, "straggler_reason");
      out += ':';
      append_json_string(out, obs.straggler_reason);
    }
    if (!obs.histograms.empty()) {
      // Percentiles only: the shard's bucket detail stays in its own
      // heartbeat; the fleet section reports the derived tail.
      out += ",\"histograms\":";
      append_histograms_json(out, obs.histograms, /*include_buckets=*/false);
    }
    out += '}';
  }
  out += "],";
  append_kv_int(out, "stragglers", fleet.stragglers);
  out += ",\"histograms\":";
  append_histograms_json(out, fleet.merged_histograms,
                         /*include_buckets=*/false);
  out += '}';
}

}  // namespace ordo::obs::agg
