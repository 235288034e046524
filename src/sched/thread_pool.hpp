// Thread pool backing the parallel rebuild engine and the rebuild service's
// per-system workers.
//
// A fixed set of workers, spawned at construction and joined at shutdown,
// over one FIFO task queue under one mutex. Idle workers wait on one
// condition variable for "work or stop"; wait_idle() waits on a second one
// for the count of queued plus running tasks to reach zero. submit_batch()
// enqueues a whole batch under one lock acquisition and wakes every waiting
// worker once — the DagScheduler dispatches each wave this way.
//
// Every task in this codebase is submitted from outside the pool (a wave
// batch from a rebuild's calling thread, or one runner per admitted service
// ticket), so per-worker queues and stealing would have nothing to balance;
// docs/PERFORMANCE.md §1 records the 4-thread measurement behind that.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"

namespace comt::sched {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1), which run until shutdown().
  explicit ThreadPool(std::size_t threads);

  /// Equivalent to shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task and wakes one waiting worker. No-op after shutdown().
  void submit(std::function<void()> task);

  /// Enqueues a whole batch under a single lock acquisition and wakes every
  /// waiting worker — the entry point for wave dispatch. Empty batches are
  /// no-ops.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Stops the workers. Tasks already running finish; tasks still queued are
  /// discarded — shutting down under pending work must never hang.
  void shutdown();

  /// Number of tasks that have run to completion.
  std::uint64_t executed() const { return executed_.load(std::memory_order_relaxed); }

  /// Attaches pool instrumentation: every task records its submit-to-start
  /// queue wait in the "<prefix>.queue_wait_ms" histogram and bumps
  /// "<prefix>.tasks"; each time a worker finds the queue empty and waits it
  /// bumps "<prefix>.parks" (docs/PERFORMANCE.md §4 explains how to read
  /// them). Pass nullptr to detach. Safe to call while workers run (the
  /// instrument pointers are atomic); tasks already instrumented keep their
  /// snapshot.
  void set_metrics(obs::MetricsRegistry* metrics, std::string_view prefix = "sched.pool");

 private:
  void worker_loop();
  std::function<void()> instrument(std::function<void()> task);

  // mutex_ guards the three members after the condition variables.
  std::mutex mutex_;
  std::condition_variable wake_;  // work queued, or stop
  std::condition_variable idle_;  // outstanding_ reached zero
  std::deque<std::function<void()>> queue_;
  std::size_t outstanding_ = 0;  // queued + running
  bool stopping_ = false;

  std::atomic<std::uint64_t> executed_{0};
  // Resolved in set_metrics; atomic because workers may already be running
  // (instruments themselves live in the registry and are never destroyed
  // while it exists).
  std::atomic<obs::Histogram*> queue_wait_ms_{nullptr};
  std::atomic<obs::Counter*> task_counter_{nullptr};
  std::atomic<obs::Counter*> park_counter_{nullptr};

  // Spawned by the constructor, joined by shutdown(); declared after
  // everything a worker uses.
  std::vector<std::thread> workers_;
};

}  // namespace comt::sched
