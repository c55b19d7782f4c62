// Thread pool for the study pipeline: one mutex-guarded FIFO queue.
//
// Workers claim tasks strictly in submission order, so the submitter sets
// the schedule. The study pipeline submits its matrices largest first
// (study_pipeline.hpp): the corpus spans three orders of magnitude in nnz,
// and starting the longest tasks first lets the short ones fill in behind
// them instead of leaving one straggler running alone at the end of the
// sweep. A task is a whole matrix study (milliseconds to seconds), so one
// lock taken per claim costs nothing measurable.
//
// Tasks must not throw — the pipeline wraps every study task in its own
// error isolation; a task that does throw anyway terminates the process
// (matching the repo-wide fail-fast idiom for internal invariants).
//
// Observability: `pipeline.pool.occupancy` (gauge, running tasks) — see
// src/obs.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_safety.hpp"

namespace ordo::pipeline {

class TaskPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit TaskPool(int threads);
  /// Waits for all submitted tasks, then joins the workers.
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues a task at the back of the queue; never blocks on running
  /// tasks.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> threads_;

  // mutex_ guards the queue and counters below and the two condition
  // variables.
  Mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers sleep here when starved
  std::condition_variable idle_cv_;  ///< wait_idle() sleeps here
  std::deque<std::function<void()>> queue_ ORDO_GUARDED_BY(mutex_);
  std::size_t in_flight_ ORDO_GUARDED_BY(mutex_) = 0;  ///< queued + running
  bool stop_ ORDO_GUARDED_BY(mutex_) = false;
};

}  // namespace ordo::pipeline
