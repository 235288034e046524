// Dependency-aware job scheduler for the rebuild engine.
//
// Jobs are named, carry explicit dependency edges (compile jobs depend on the
// jobs producing their inputs, links on their objects, archives on their
// members — exactly the edges the process models record), and run through a
// ThreadPool once every dependency succeeded. The schedule is validated
// up front with Kahn's algorithm, so a cyclic graph is an error before any
// job runs — never a deadlock. Results are reported in submission order
// regardless of completion order, which is what makes parallel rebuilds
// reproducible job-for-job.
//
// Execution runs in waves: the DAG is partitioned by level (wave(i) = 1 +
// max over dependencies), every job inside a wave is mutually independent,
// and the whole wave is dispatched as one pool batch, or run inline in
// submission order when there is no pool. Optional EpochHooks::begin runs
// once per wave before dispatch and EpochHooks::commit once after the wave
// barrier — both on the run() caller's thread — which is what lets the
// rebuild engine share one immutable rootfs snapshot per wave and batch all
// output commits instead of locking per job (see docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/thread_pool.hpp"
#include "support/error.hpp"

namespace comt::sched {

/// A job body: does the work, reports success/failure.
using JobFn = std::function<Status()>;

/// Per-job outcome, in submission order.
struct JobOutcome {
  std::string id;       ///< the id given to add_job
  Status status;        ///< success, the job's own error, or the skip reason
  bool skipped = false; ///< true when a dependency failed and the job never ran
  double wall_ms = 0;   ///< job body execution time (0 when skipped)
};

/// Outcome of one scheduler run.
struct ScheduleReport {
  std::vector<JobOutcome> jobs;  ///< one per add_job call, in that order
  std::size_t executed = 0;      ///< job bodies that ran (succeeded or failed)
  std::size_t failed = 0;        ///< executed bodies that returned an error
  std::size_t skipped = 0;       ///< jobs never run because a dependency failed
  std::size_t epochs = 0;        ///< waves with at least one body to run
  double wall_ms = 0;            ///< schedule wall time

  /// Error of the first failed/skipped job in submission order, or success.
  Status first_error() const;
};

/// Observability hooks for one scheduler run. All pointers are optional and
/// borrowed: the caller keeps them alive for the duration of run().
struct ObsOptions {
  obs::Tracer* tracer = nullptr;       ///< when set, one "job:<id>" span per job
  obs::SpanId parent = obs::kNoSpan;   ///< parent for every job span
  std::string category = "compile";    ///< span category (per-job override wins)
  obs::MetricsRegistry* metrics = nullptr;  ///< sink for the counters below
  /// Metric namespace: "<prefix>.ready_wait_ms" (dispatch latency histogram),
  /// "<prefix>.jobs.{executed,failed,skipped}" counters, "<prefix>.epochs"
  /// (waves dispatched) and "<prefix>.epoch_jobs" (jobs-per-wave histogram —
  /// low values mean a serial DAG, not a slow pool).
  std::string metric_prefix = "sched";
};

/// Wave lifecycle callbacks for one run. Both hooks run on the thread that
/// called run() — never on a pool worker — so they may touch state the job
/// bodies only read. Either may be empty.
struct EpochHooks {
  /// Called before a wave is dispatched. `jobs` are the submission-order
  /// indices of the bodies about to execute (poisoned jobs are excluded; a
  /// wave in which everything is poisoned still reports, but `begin` and
  /// `commit` are skipped). The rebuild engine uses this to publish one
  /// immutable rootfs snapshot for the whole wave.
  std::function<void(std::size_t epoch, const std::vector<std::size_t>& jobs)> begin;

  /// Called after the wave barrier with the submission-order indices of the
  /// bodies that succeeded. A returned error marks every listed job failed
  /// (their dependents are then skipped, make -k style). The rebuild engine
  /// uses this to apply the wave's buffered outputs under one commit instead
  /// of one per job.
  std::function<Status(std::size_t epoch, const std::vector<std::size_t>& succeeded)> commit;
};

/// Builds and executes one dependency graph. Not thread-safe itself: add jobs
/// and call run() from one thread (run() fans the bodies out internally).
class DagScheduler {
 public:
  /// Registers a job. `deps` name jobs this one must run after; forward
  /// references are allowed (edges are resolved at run()). Duplicate ids
  /// are an error. `category` labels the job's span ("compile", "link", …);
  /// empty falls back to ObsOptions::category.
  Status add_job(std::string id, std::vector<std::string> deps, JobFn fn,
                 std::string category = "");

  /// Jobs registered so far.
  std::size_t job_count() const { return jobs_.size(); }

  /// Executes the graph wave by wave, with a barrier (and the hook calls)
  /// between waves. With a pool, a wave's bodies run concurrently; with
  /// `pool == nullptr` they run inline on the calling thread, in submission
  /// order. Either way outcomes land in submission order. Fails without
  /// running anything when the graph has an unknown dependency or a cycle.
  /// A failed job skips its transitive dependents; independent jobs still
  /// run (make -k semantics, so one bad unit doesn't hide other errors).
  /// With ObsOptions attached, every job — executed or skipped — emits
  /// exactly one span, so span count always equals job_count(). `hooks` is
  /// optional: without it no begin/commit call is made.
  Result<ScheduleReport> run(ThreadPool* pool, const ObsOptions& opts = {},
                             const EpochHooks* hooks = nullptr);

 private:
  struct Job {
    std::string id;
    std::vector<std::string> deps;
    JobFn fn;
    std::string category;
  };

  std::vector<Job> jobs_;
};

}  // namespace comt::sched
