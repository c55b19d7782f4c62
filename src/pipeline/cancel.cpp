#include "pipeline/cancel.hpp"

#include <optional>

namespace ordo::pipeline {

DeadlineWatchdog::~DeadlineWatchdog() {
  // Move the thread out under the lock (it is guarded state — arm() may
  // still be assigning it), then join without holding the mutex so the
  // loop's final lock acquisition cannot deadlock against us.
  std::thread scanner;
  {
    MutexLock lock(mutex_);
    stop_ = true;
    scanner = std::move(thread_);
  }
  cv_.notify_all();
  if (scanner.joinable()) scanner.join();
}

void DeadlineWatchdog::arm(CancelToken* token,
                           std::chrono::steady_clock::time_point deadline) {
  bool new_earliest = true;
  {
    MutexLock lock(mutex_);
    for (const auto& [armed_token, armed_deadline] : armed_) {
      if (armed_token != token && armed_deadline <= deadline) {
        new_earliest = false;
        break;
      }
    }
    armed_[token] = deadline;
    if (!thread_.joinable()) {
      thread_ = std::thread([this] { loop(); });
    }
  }
  // The loop sleeps until the earliest deadline it knew of; only a deadline
  // before that one needs to wake it early.
  if (new_earliest) cv_.notify_all();
}

void DeadlineWatchdog::disarm(CancelToken* token) {
  MutexLock lock(mutex_);
  armed_.erase(token);
}

void DeadlineWatchdog::loop() {
  MutexLock lock(mutex_);
  while (!stop_) {
    const auto now = clock_();
    std::optional<std::chrono::steady_clock::time_point> earliest;
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->second <= now) {
        it->first->cancel();
        it = armed_.erase(it);
      } else {
        if (!earliest || it->second < *earliest) earliest = it->second;
        ++it;
      }
    }
    // Sleep until the earliest remaining deadline, measured on the injected
    // clock (with steady_clock::now this is wait_until(*earliest)), or until
    // arm() brings a new earliest deadline or the destructor stops the loop.
    // Disarming a task leaves at most one wakeup that finds nothing to do.
    if (earliest) {
      cv_.wait_for(lock.native(), *earliest - now);
    } else {
      cv_.wait(lock.native());
    }
  }
}

}  // namespace ordo::pipeline
