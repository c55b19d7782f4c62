#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <ostream>

#include "core/thread_safety.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

std::atomic<bool> g_tracing_enabled{false};

// This process's trace identity: the label of its row, and the
// per-process trace files (a sharded parent's `.shard<k>` inputs) its
// export appends after its own spans. Leaked: read by the atexit trace
// export, after ordinary statics died.
struct TraceInput {
  std::string path;
  std::string label;  ///< row name when the file carries no process_label
};
struct TraceRows {
  std::string label;
  std::vector<TraceInput> inputs;
};

Mutex g_rows_mutex;
TraceRows& trace_rows() ORDO_REQUIRES(g_rows_mutex) {
  static TraceRows* rows = new TraceRows;
  return *rows;
}

// Per-thread span buffer. The owning thread is the only appender, but a
// snapshot (collect_trace/clear_trace) may run concurrently from another
// thread, so the events vector is guarded by a per-buffer mutex — contended
// only at export time, and spans are phase-granular, so the uncontended
// lock per span close is noise. `depth` stays unguarded: only the owning
// thread ever touches it. Buffers deliberately leak at thread exit so spans
// from joined threads survive until export — the process-lifetime cost is
// bounded by span volume.
struct ThreadBuffer {
  Mutex mutex;  ///< guards `events` (owner appends, exporters read)
  std::vector<SpanEvent> events ORDO_GUARDED_BY(mutex);
  // ordo-analyze: allow(guard-coverage) depth is touched only by the owning
  // thread (span open/close nesting), never by exporters.
  int depth = 0;
  // ordo-analyze: allow(guard-coverage) thread_id is written once at
  // registration (before the buffer is published) and read-only after.
  int thread_id = 0;
};

// Registry mutex and buffer list live in one (deliberately leaked) struct:
// finalize() runs from std::atexit handlers that may outlive ordinarily-
// destroyed function statics, and the guarded_by relation needs both in
// one place.
struct BufferRegistry {
  Mutex mutex;
  std::vector<ThreadBuffer*> buffers ORDO_GUARDED_BY(mutex);
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry;
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto* b = new ThreadBuffer;
    BufferRegistry& r = registry();
    MutexLock lock(r.mutex);
    b->thread_id = static_cast<int>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// The Chrome metadata rows naming one process's row: a process_name, plus
// a process_sort_index when rows from several processes share the file.
void write_process_rows(std::ostream& out, std::int64_t pid,
                        const std::string& label, int sort_index) {
  std::string name;
  append_json_string(name, label);
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"args\":{\"name\":" << name << "}}";
  if (sort_index < 0) return;
  out << ",{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"args\":{\"sort_index\":" << sort_index << "}}";
}

// Writes one input file's rows and events, each preceded by a comma (the
// calling process's row always comes first). Metadata rows are re-authored
// from the file's own pid/process_label keys; everything else re-emits
// byte-preserving (raw number text keeps the timestamps exact). An
// unreadable or torn file is logged and skipped: a crashed shard must not
// take the surviving shards' timeline with it.
void write_input_events(std::ostream& out, const TraceInput& input,
                        int sort_index) {
  JsonValue parsed;
  try {
    parsed = read_json_file(input.path);
    require(parsed.at("traceEvents").kind == JsonValue::Kind::kArray,
            "json: traceEvents is not an array");
  } catch (const std::exception& e) {
    logf(LogLevel::kProgress,
         "trace: skipping %s (%s; did that shard crash before its trace "
         "export?)",
         input.path.c_str(), e.what());
    return;
  }
  // A file without a pid gets a synthetic negative one so its rows never
  // collide with a real process's.
  const JsonValue* pid_value = parsed.find("pid");
  const std::int64_t pid = pid_value != nullptr
                               ? pid_value->as_int()
                               : -static_cast<std::int64_t>(sort_index);
  const JsonValue* label_value = parsed.find("process_label");
  std::string label =
      label_value != nullptr ? label_value->as_string() : input.label;
  if (label.empty()) label = "pid " + std::to_string(pid);
  out << ',';
  write_process_rows(out, pid, label, sort_index);
  std::string text;
  for (const JsonValue& event : parsed.at("traceEvents").items) {
    const JsonValue* ph = event.find("ph");
    if (ph != nullptr && ph->kind == JsonValue::Kind::kString &&
        ph->text == "M") {
      continue;
    }
    text.assign(1, ',');
    append_json_value(text, event);
    out << text;
  }
}

}  // namespace

std::int64_t trace_now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point anchor = clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                               anchor)
      .count();
}

bool tracing_enabled() {
  // Relaxed: an on/off flag polled per span; buffers carry their own locks.
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) {
  if (enabled) trace_now_us();  // pin the time anchor before the first span
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void clear_trace() {
  BufferRegistry& r = registry();
  MutexLock lock(r.mutex);
  for (ThreadBuffer* buffer : r.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<SpanEvent> collect_trace() {
  std::vector<SpanEvent> all;
  {
    // Lock order: registry mutex, then each buffer mutex. Appenders only
    // ever take their own buffer mutex, so the order cannot invert.
    BufferRegistry& r = registry();
    MutexLock lock(r.mutex);
    for (ThreadBuffer* buffer : r.buffers) {
      MutexLock buffer_lock(buffer->mutex);
      all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  return all;
}

std::string trace_process_label() {
  MutexLock lock(g_rows_mutex);
  return trace_rows().label;
}

void set_trace_process_label(const std::string& label) {
  MutexLock lock(g_rows_mutex);
  trace_rows().label = label;
}

void register_trace_input(const std::string& path,
                          const std::string& label) {
  MutexLock lock(g_rows_mutex);
  for (TraceInput& input : trace_rows().inputs) {
    if (input.path == path) {
      input.label = label;
      return;
    }
  }
  trace_rows().inputs.push_back({path, label});
}

void clear_trace_inputs() {
  MutexLock lock(g_rows_mutex);
  trace_rows().inputs.clear();
}

void write_chrome_trace(std::ostream& out) {
  std::vector<TraceInput> inputs;
  std::string label;
  {
    MutexLock lock(g_rows_mutex);
    inputs = trace_rows().inputs;
    label = trace_rows().label;
  }
  // A stitched document names every row, the calling process's included.
  if (label.empty() && !inputs.empty()) label = "parent";
  const long pid = static_cast<long>(::getpid());
  // schema_version and process_label are ours (chrome://tracing ignores
  // unknown top-level keys); schema_version tracks the span "args" layout,
  // versioned with the metrics document, and pid/process_label name this
  // file's row when a parent appends it as an input.
  out << "{\"schema_version\":" << kMetricsSchemaVersion << ",\"pid\":" << pid;
  std::string text;  // scratch for escaped strings
  if (!label.empty()) {
    append_json_string(text, label);
    out << ",\"process_label\":" << text;
  }
  out << ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = label.empty();
  if (!first) write_process_rows(out, pid, label, inputs.empty() ? -1 : 0);
  for (const SpanEvent& e : collect_trace()) {
    if (!first) out << ',';
    first = false;
    text.clear();
    append_json_string(text, e.name);
    out << "{\"name\":" << text << ",\"cat\":\"ordo\",\"ph\":\"X\",\"ts\":"
        << e.start_us << ",\"dur\":" << e.duration_us << ",\"pid\":" << pid
        << ",\"tid\":" << e.thread_id << ",\"args\":{\"depth\":" << e.depth
        << "}}";
  }
  // Inputs exist only on a labelled process, so a row precedes them.
  int sort_index = 0;
  for (const TraceInput& input : inputs) {
    write_input_events(out, input, ++sort_index);
  }
  out << "]}\n";
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(out);
}

Span::Span(const char* name) {
  if (tracing_enabled()) open(name);
}

Span::Span(std::string name) {
  if (tracing_enabled()) open(std::move(name));
}

void Span::open(std::string name) {
  active_ = true;
  name_ = std::move(name);
  depth_ = local_buffer().depth++;
  start_us_ = trace_now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end_us = trace_now_us();
  ThreadBuffer& buffer = local_buffer();
  buffer.depth--;
  SpanEvent event;
  event.name = std::move(name_);
  event.start_us = start_us_;
  event.duration_us = end_us - start_us_;
  event.thread_id = buffer.thread_id;
  event.depth = depth_;
  MutexLock lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

}  // namespace ordo::obs
