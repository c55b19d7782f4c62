// Tests for ordo::obs: span nesting and the trace buffer, the Chrome trace
// export and its stitch of per-process trace files, thread safety of the
// metrics registry, JSON export well-formedness and escaping, the logging
// sink and environment-variable configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

// Minimal JSON well-formedness check: balanced braces/brackets outside
// strings, nothing after the top-level value. Enough to catch the classic
// dump bugs (trailing commas are caught by the balance+structure of our
// fixed-shape documents, unescaped quotes by the string scanner).
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool seen_value = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); seen_value = true; break;
      case '[': stack.push_back(']'); seen_value = true; break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty() && seen_value;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    clear_trace();
    reset_metrics();
    set_log_level(LogLevel::kQuiet);
  }
  void TearDown() override {
    set_tracing_enabled(false);
    clear_trace();
    set_log_level(LogLevel::kQuiet);
    set_profiling_enabled(false);
  }
};

TEST_F(ObsTest, StopwatchMeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(watch.seconds(), 0.0);
  EXPECT_GE(watch.micros(), 0);
}

TEST_F(ObsTest, MedianOfRepsRunsWarmupPlusReps) {
  int calls = 0;
  const double median = median_seconds_of_reps(5, [&] { ++calls; });
  EXPECT_EQ(calls, 6);  // 1 warm-up + 5 measured
  EXPECT_GE(median, 0.0);
}

TEST_F(ObsTest, SpansRecordNestingDepthAndContainment) {
  set_tracing_enabled(true);
  {
    Span outer("outer");
    {
      Span inner("outer/inner");
    }
  }
  const std::vector<SpanEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opens first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "outer/inner");
  EXPECT_EQ(events[1].depth, 1);
  // The child lies within the parent.
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].duration_us,
            events[0].start_us + events[0].duration_us);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  {
    Span span("never");
    ORDO_SCOPE("never/macro");
  }
  EXPECT_TRUE(collect_trace().empty());
}

TEST_F(ObsTest, SpansFromManyThreadsAllCollected) {
  set_tracing_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("worker/span");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<SpanEvent> events = collect_trace();
  EXPECT_GE(events.size(), static_cast<std::size_t>(kThreads * kSpansPerThread));
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedJson) {
  set_tracing_enabled(true);
  {
    Span outer("study/run");
    Span inner("reorder/RCM \"quoted\"\n");
  }
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("study/run"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

// --- trace inputs: the sharded parent's stitch ----------------------------

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// One per-process trace file as obs::write_chrome_trace emits it.
void write_shard_trace(const std::string& path, int pid,
                       const std::string& label, const std::string& span) {
  std::ofstream out(path);
  out << "{\"schema_version\":1,\"pid\":" << pid << ",\"process_label\":\""
      << label << "\",\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"args\":{\"name\":\"" << label << "\"}},"
      << "{\"name\":\"" << span
      << "\",\"cat\":\"ordo\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\"pid\":"
      << pid << ",\"tid\":1,\"args\":{\"depth\":0}}]}\n";
}

TEST(TraceMerge, StitchesShardFilesIntoNamedProcessRows) {
  const std::string dir = fresh_dir("ordo_obs_trace_merge");
  write_shard_trace(dir + "/trace.shard0", 11111, "shard 0", "study/task");
  write_shard_trace(dir + "/trace.shard1", 22222, "shard 1", "study/spmv");

  clear_trace_inputs();
  register_trace_input(dir + "/trace.shard0", "shard 0");
  register_trace_input(dir + "/trace.shard1", "shard 1");
  // Registration is idempotent per path — re-registering must not create a
  // duplicate process row.
  register_trace_input(dir + "/trace.shard0", "shard 0");

  std::ostringstream merged;
  write_chrome_trace(merged);
  const JsonValue doc = parse_json(merged.str());
  const JsonValue& events = doc.at("traceEvents");

  std::vector<std::int64_t> named_pids;
  std::vector<std::int64_t> span_pids;
  for (const JsonValue& event : events.items) {
    if (event.at("ph").text == "M") {
      if (event.at("name").text == "process_name") {
        named_pids.push_back(event.at("pid").as_int());
      }
      continue;
    }
    span_pids.push_back(event.at("pid").as_int());
  }
  // Three named rows: this process (the "parent") plus the two shards,
  // each under its real pid.
  const std::int64_t own_pid = static_cast<std::int64_t>(::getpid());
  ASSERT_EQ(named_pids.size(), 3u);
  EXPECT_EQ(named_pids[0], own_pid);
  EXPECT_EQ(doc.at("process_label").as_string(), "parent");
  EXPECT_NE(std::find(named_pids.begin(), named_pids.end(), 11111),
            named_pids.end());
  EXPECT_NE(std::find(named_pids.begin(), named_pids.end(), 22222),
            named_pids.end());
  // The shard spans survived with their own pids (no re-parenting).
  EXPECT_NE(std::find(span_pids.begin(), span_pids.end(), 11111),
            span_pids.end());
  EXPECT_NE(std::find(span_pids.begin(), span_pids.end(), 22222),
            span_pids.end());
  clear_trace_inputs();
  std::filesystem::remove_all(dir);
}

TEST(TraceMerge, UnreadableInputIsSkippedNotFatal) {
  const std::string dir = fresh_dir("ordo_obs_trace_missing");
  write_shard_trace(dir + "/trace.shard0", 33333, "shard 0", "study/task");

  clear_trace_inputs();
  register_trace_input(dir + "/trace.shard0", "shard 0");
  // A worker that was SIGKILLed before finalize leaves no file: the merge
  // must still produce a valid trace from the survivors.
  register_trace_input(dir + "/trace.shard1", "shard 1");

  std::ostringstream merged;
  write_chrome_trace(merged);
  const JsonValue doc = parse_json(merged.str());
  bool found_survivor = false;
  for (const JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("ph").text != "M" && event.at("pid").as_int() == 33333) {
      found_survivor = true;
    }
  }
  EXPECT_TRUE(found_survivor);
  clear_trace_inputs();
  std::filesystem::remove_all(dir);
}

TEST(TraceMerge, ControlCharacterSpanNamesSurviveTheStitch) {
  // Span names embed matrix names, so any byte can reach the writer. A
  // worker file written by write_chrome_trace must parse back in the
  // parent's stitch with the name intact, not be dropped as torn JSON.
  const std::string dir = fresh_dir("ordo_obs_trace_control");
  const std::string name = "a\rb\x01" "c";
  clear_trace();
  clear_trace_inputs();
  set_tracing_enabled(true);
  set_trace_process_label("shard 0");
  { Span span(name); }
  write_chrome_trace_file(dir + "/trace.shard0");
  clear_trace();
  set_trace_process_label("");
  register_trace_input(dir + "/trace.shard0", "shard 0");

  std::ostringstream merged;
  write_chrome_trace(merged);
  set_tracing_enabled(false);
  clear_trace_inputs();
  const JsonValue doc = parse_json(merged.str());
  std::vector<std::string> span_names;
  for (const JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("ph").text == "X") span_names.push_back(event.at("name").text);
  }
  EXPECT_EQ(span_names, std::vector<std::string>{name});
  std::filesystem::remove_all(dir);
}

TEST(Json, EscapesEveryControlByteAndDecodesAsciiEscapesOnly) {
  std::string all_controls;
  for (int c = 1; c < 0x20; ++c) all_controls += static_cast<char>(c);
  std::string literal;
  append_json_string(literal, all_controls);
  for (char c : literal) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << literal;
  }
  EXPECT_EQ(parse_json(literal).as_string(), all_controls);
  EXPECT_EQ(parse_json("\"\\u0041\\u007F\"").as_string(), "A\x7f");
  EXPECT_THROW(parse_json("\"\\u0080\""), invalid_argument_error);
  EXPECT_THROW(parse_json("\"\\ud83d\\ude00\""), invalid_argument_error);
  EXPECT_THROW(parse_json("\"\\u00\""), invalid_argument_error);
  EXPECT_THROW(parse_json("\"\\u0x1f\""), invalid_argument_error);
}

TEST_F(ObsTest, CountersAreThreadSafe) {
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  Counter& c = counter("test.concurrent_counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kAdds);
}

TEST_F(ObsTest, HistogramsAreThreadSafeAndSummarize) {
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  Histogram& h = histogram("test.concurrent_histogram");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::int64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(s.sum, kRecords * (1.0 + 2.0 + 3.0 + 4.0));
}

TEST_F(ObsTest, RegistryLookupFromManyThreadsYieldsOneInstrument) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&seen, t] { seen[static_cast<std::size_t>(t)] =
                         &counter("test.registry_race"); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
}

TEST_F(ObsTest, MetricKindsAreExclusivePerName) {
  counter("test.kind_collision");
  EXPECT_THROW(histogram("test.kind_collision"), invalid_argument_error);
  EXPECT_THROW(gauge("test.kind_collision"), invalid_argument_error);
}

TEST_F(ObsTest, MetricsJsonRoundTripsValuesAndNames) {
  counter("test.json_counter").add(42);
  gauge("test.json_gauge").set(2.5);
  histogram("test.json_histogram").record(3.0);
  histogram("test.json_histogram").record(5.0);

  std::ostringstream out;
  write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"test.json_counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"mean\":4"), std::string::npos);

  EXPECT_TRUE(has_metric("test.json_counter"));
  const std::vector<std::string> names = metric_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.json_histogram"),
            names.end());
}

TEST_F(ObsTest, ResetZeroesWithoutInvalidatingReferences) {
  Counter& c = counter("test.reset_counter");
  c.add(7);
  Histogram& h = histogram("test.reset_histogram");
  h.record(1.0);
  reset_metrics();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
}

TEST_F(ObsTest, LogLevelParsingAndGating) {
  EXPECT_EQ(parse_log_level("quiet"), LogLevel::kQuiet);
  EXPECT_EQ(parse_log_level("Progress"), LogLevel::kProgress);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("1"), LogLevel::kProgress);
  EXPECT_THROW(parse_log_level("loud"), invalid_argument_error);

  set_log_level(LogLevel::kProgress);
  EXPECT_TRUE(log_enabled(LogLevel::kProgress));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  set_log_level(LogLevel::kQuiet);
  EXPECT_FALSE(log_enabled(LogLevel::kProgress));
}

TEST_F(ObsTest, InitFromEnvConfiguresEverySink) {
  ::setenv("ORDO_TRACE", "/tmp/ordo_obs_test_trace.json", 1);
  ::setenv("ORDO_LOG", "debug", 1);
  ::setenv("ORDO_METRICS", "/tmp/ordo_obs_test_metrics.json", 1);
  ::setenv("ORDO_PROFILE", "1", 1);
  init_from_env();
  EXPECT_TRUE(tracing_enabled());
  EXPECT_EQ(trace_output_path(), "/tmp/ordo_obs_test_trace.json");
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  EXPECT_EQ(metrics_output_path(), "/tmp/ordo_obs_test_metrics.json");
  EXPECT_TRUE(profiling_enabled());

  ::unsetenv("ORDO_TRACE");
  ::unsetenv("ORDO_LOG");
  ::unsetenv("ORDO_METRICS");
  ::unsetenv("ORDO_PROFILE");
  set_trace_output_path("");
  set_metrics_output_path("");
}

TEST_F(ObsTest, FinalizeWritesConfiguredFiles) {
  const std::string trace_path = ::testing::TempDir() + "/obs_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/obs_metrics.json";
  set_tracing_enabled(true);
  { Span span("finalize/span"); }
  counter("test.finalize_counter").add(3);
  set_trace_output_path(trace_path);
  set_metrics_output_path(metrics_path);
  finalize();
  set_trace_output_path("");
  set_metrics_output_path("");

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string trace = slurp(trace_path);
  const std::string metrics = slurp(metrics_path);
  EXPECT_TRUE(json_balanced(trace)) << trace;
  EXPECT_NE(trace.find("finalize/span"), std::string::npos);
  EXPECT_TRUE(json_balanced(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"test.finalize_counter\":3"), std::string::npos);
}

}  // namespace
}  // namespace ordo::obs
