#include "obs/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdarg>
#include <cstdio>

#include "core/thread_safety.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kQuiet)};

Mutex& log_mutex() {
  static Mutex* m = new Mutex;  // leaked: logf runs from atexit
  return *m;
}

}  // namespace

LogLevel log_level() {
  // Relaxed: the level is an independent tuning knob; readers need only
  // eventual visibility, not ordering with the messages it gates.
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  // Relaxed: see log_level().
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel parse_log_level(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "quiet" || lower == "0") return LogLevel::kQuiet;
  if (lower == "progress" || lower == "1") return LogLevel::kProgress;
  if (lower == "debug" || lower == "2") return LogLevel::kDebug;
  throw invalid_argument_error(
      "parse_log_level: expected quiet|progress|debug, got '" + name + "'");
}

bool log_enabled(LogLevel level) {
  // Relaxed: see log_level().
  return static_cast<int>(level) <= g_level.load(std::memory_order_relaxed) &&
         level != LogLevel::kQuiet;
}

void logf(LogLevel level, const char* format, ...) {
  if (!log_enabled(level)) return;
  std::va_list args;
  va_start(args, format);
  MutexLock lock(log_mutex());
  std::fprintf(stderr, level == LogLevel::kDebug ? "ordo[debug]: " : "ordo: ");
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace ordo::obs
