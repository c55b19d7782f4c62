// Cooperative cancellation for pipeline tasks.
//
// A CancelToken owns the `std::atomic<bool>` flag that the compute layers
// poll (ReorderOptions::cancel / PartitionOptions::cancel — see
// poll_cancelled in sparse/types.hpp). The token itself never watches the
// clock: soft deadlines are enforced by a DeadlineWatchdog thread that sleeps
// until the earliest armed deadline and sets the flag of any task past it.
// The cancelled task unwinds with operation_cancelled_error at its next poll
// site (an ordering/model phase boundary, a bisection, or an ND separator
// level), which the scheduler records as a timed-out failure.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "core/thread_safety.hpp"

namespace ordo::pipeline {

/// Per-task cancellation flag. The raw flag pointer is what gets threaded
/// into ReorderOptions/PartitionOptions; the token stays owned by the
/// scheduler frame running the task.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }
  const std::atomic<bool>* flag() const { return &flag_; }

 private:
  std::atomic<bool> flag_{false};
};

/// Flags armed tokens once their deadline passes. One watchdog serves all
/// workers of a pipeline run; its thread starts lazily on the first arm()
/// and joins in the destructor. Tokens must be disarmed before destruction.
class DeadlineWatchdog {
 public:
  /// The watchdog's time source. Pipeline runs use steady_clock::now; tests
  /// inject a manual clock, so whether a deadline has passed depends on the
  /// order of events rather than on how promptly the thread is scheduled.
  using Clock = std::function<std::chrono::steady_clock::time_point()>;

  explicit DeadlineWatchdog(Clock clock = std::chrono::steady_clock::now)
      : clock_(std::move(clock)) {}
  ~DeadlineWatchdog();
  DeadlineWatchdog(const DeadlineWatchdog&) = delete;
  DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

  void arm(CancelToken* token, std::chrono::steady_clock::time_point deadline);
  void disarm(CancelToken* token);

 private:
  void loop();

  // ordo-analyze: allow(guard-coverage) set in the constructor, then only
  // called; the function object itself never changes.
  const Clock clock_;
  Mutex mutex_;
  std::condition_variable cv_;
  std::map<CancelToken*, std::chrono::steady_clock::time_point> armed_
      ORDO_GUARDED_BY(mutex_);
  // Guarded: arm() lazily starts the thread, so creation races with other
  // arm() calls; the destructor moves it out under the lock before joining.
  std::thread thread_ ORDO_GUARDED_BY(mutex_);
  bool stop_ ORDO_GUARDED_BY(mutex_) = false;
};

}  // namespace ordo::pipeline
