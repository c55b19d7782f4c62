#include "pipeline/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/obs.hpp"

namespace ordo::pipeline {

#if defined(ORDO_OBS_ENABLED)
namespace {
// Running-task count across all pools, mirrored into the occupancy gauge
// (the metrics registry is process-wide, so the count is too).
std::atomic<int> g_running{0};
}  // namespace
#endif

TaskPool::TaskPool(int threads) {
  const int n = std::max(1, threads);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  wait_idle();
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  wake_cv_.notify_one();
}

void TaskPool::wait_idle() {
  MutexLock lock(mutex_);
  // Explicit wait loop — see worker_loop for why not the predicate form.
  while (in_flight_ != 0) idle_cv_.wait(lock.native());
}

void TaskPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop (not the predicate overload): the guarded reads
      // stay lexically under the lock, where -Wthread-safety can see them.
      while (!stop_ && queue_.empty()) wake_cv_.wait(lock.native());
      if (queue_.empty()) return;  // stopped and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
#if defined(ORDO_OBS_ENABLED)
    // Relaxed: the occupancy gauge is telemetry; momentarily stale
    // +-1 readings are fine (both fetch_add and fetch_sub below).
    obs::gauge("pipeline.pool.occupancy")
        .set(g_running.fetch_add(1, std::memory_order_relaxed) + 1);
#endif
    task();
#if defined(ORDO_OBS_ENABLED)
    obs::gauge("pipeline.pool.occupancy")
        .set(g_running.fetch_sub(1, std::memory_order_relaxed) - 1);
#endif
    bool idle;
    {
      MutexLock lock(mutex_);
      idle = (--in_flight_ == 0);
    }
    if (idle) idle_cv_.notify_all();
  }
}

}  // namespace ordo::pipeline
