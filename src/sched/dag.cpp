#include "sched/dag.hpp"

#include <condition_variable>
#include <map>
#include <mutex>
#include <queue>

#include "obs/stopwatch.hpp"

namespace comt::sched {

Status ScheduleReport::first_error() const {
  // Prefer a job's own failure over a "skipped because a dependency failed"
  // notice — the root cause is what callers should surface.
  for (const JobOutcome& job : jobs) {
    if (!job.status.ok() && !job.skipped) return job.status.error();
  }
  for (const JobOutcome& job : jobs) {
    if (!job.status.ok()) return job.status.error();
  }
  return Status::success();
}

Status DagScheduler::add_job(std::string id, std::vector<std::string> deps, JobFn fn,
                             std::string category) {
  for (const Job& job : jobs_) {
    if (job.id == id) {
      return make_error(Errc::already_exists, "sched: duplicate job '" + id + "'");
    }
  }
  jobs_.push_back(Job{std::move(id), std::move(deps), std::move(fn), std::move(category)});
  return Status::success();
}

Result<ScheduleReport> DagScheduler::run(ThreadPool* pool, const ObsOptions& opts,
                                         const EpochHooks* hooks) {
  const obs::Stopwatch schedule_clock;
  const std::size_t count = jobs_.size();

  obs::Histogram* ready_wait_ms = nullptr;
  obs::Counter* executed_count = nullptr;
  obs::Counter* failed_count = nullptr;
  obs::Counter* skipped_count = nullptr;
  obs::Counter* epoch_count = nullptr;
  obs::Histogram* epoch_jobs = nullptr;
  if (opts.metrics != nullptr) {
    ready_wait_ms = &opts.metrics->histogram(opts.metric_prefix + ".ready_wait_ms");
    executed_count = &opts.metrics->counter(opts.metric_prefix + ".jobs.executed");
    failed_count = &opts.metrics->counter(opts.metric_prefix + ".jobs.failed");
    skipped_count = &opts.metrics->counter(opts.metric_prefix + ".jobs.skipped");
    epoch_count = &opts.metrics->counter(opts.metric_prefix + ".epochs");
    epoch_jobs = &opts.metrics->histogram(opts.metric_prefix + ".epoch_jobs",
                                          obs::default_batch_size_buckets());
  }

  // Resolve names to indices and validate edges.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < count; ++i) index[jobs_[i].id] = i;
  std::vector<std::vector<std::size_t>> dependents(count);
  std::vector<std::size_t> degree(count, 0);  // unresolved dependencies
  for (std::size_t i = 0; i < count; ++i) {
    for (const std::string& dep : jobs_[i].deps) {
      auto found = index.find(dep);
      if (found == index.end()) {
        return make_error(Errc::not_found, "sched: job '" + jobs_[i].id +
                                               "' depends on unknown job '" + dep + "'");
      }
      dependents[found->second].push_back(i);
      ++degree[i];
    }
  }

  // Kahn's algorithm up front: a cycle must be an error, not a deadlock.
  // The same pass computes wave levels (1 + longest dependency chain) — every
  // job in a wave depends only on earlier waves, so one immutable snapshot
  // per wave is always consistent.
  std::vector<std::size_t> level(count, 0);
  {
    std::queue<std::size_t> ready;
    for (std::size_t i = 0; i < count; ++i) {
      if (degree[i] == 0) ready.push(i);
    }
    std::size_t visited = 0;
    while (!ready.empty()) {
      std::size_t job = ready.front();
      ready.pop();
      ++visited;
      for (std::size_t dependent : dependents[job]) {
        if (level[dependent] < level[job] + 1) level[dependent] = level[job] + 1;
        if (--degree[dependent] == 0) ready.push(dependent);
      }
    }
    if (visited != count) {
      std::string cyclic;
      for (std::size_t i = 0; i < count; ++i) {
        if (degree[i] != 0) {
          cyclic = jobs_[i].id;
          break;
        }
      }
      return make_error(Errc::invalid_argument,
                        "sched: dependency cycle involving job '" + cyclic + "'");
    }
  }

  ScheduleReport report;
  report.jobs.resize(count);
  for (std::size_t i = 0; i < count; ++i) report.jobs[i].id = jobs_[i].id;

  // Jobs grouped by level run as one batch between two barriers. No lock
  // around a body: it writes only its own report slot, the shared counters
  // are aggregated on the caller's thread at the barrier, and poison marks
  // are read/written only between waves. A finished body takes the
  // barrier's mutex once, to count down.
  std::vector<std::vector<std::size_t>> waves;
  for (std::size_t i = 0; i < count; ++i) {
    if (level[i] >= waves.size()) waves.resize(level[i] + 1);
    waves[level[i]].push_back(i);  // ascending i: submission order per wave
  }

  std::vector<bool> poisoned(count, false);
  // Per-job dispatch latency: restarted when the job's wave is dispatched,
  // observed when its body starts.
  std::vector<obs::Stopwatch> ready_at(count);

  auto run_body = [&](std::size_t job_index) {
    if (ready_wait_ms != nullptr) {
      ready_wait_ms->observe(ready_at[job_index].elapsed_ms());
    }
    const Job& job = jobs_[job_index];
    obs::Span span = obs::maybe_span(opts.tracer, "job:" + job.id, opts.parent,
                                     job.category.empty() ? opts.category : job.category);
    const obs::Stopwatch job_clock;
    Status status = job.fn();
    JobOutcome& outcome = report.jobs[job_index];
    outcome.status = std::move(status);
    outcome.wall_ms = job_clock.elapsed_ms();
    span.end();
  };

  for (const std::vector<std::size_t>& wave : waves) {
    std::vector<std::size_t> runnable;
    runnable.reserve(wave.size());
    for (std::size_t job_index : wave) {
      if (poisoned[job_index]) {
        const Job& job = jobs_[job_index];
        obs::Span span =
            obs::maybe_span(opts.tracer, "job:" + job.id, opts.parent,
                            job.category.empty() ? opts.category : job.category);
        span.annotate("skipped", std::uint64_t{1});
        span.end();
        JobOutcome& outcome = report.jobs[job_index];
        outcome.skipped = true;
        outcome.status = make_error(Errc::failed, "sched: skipped '" + job.id +
                                                      "': a dependency failed");
        ++report.skipped;
        if (skipped_count != nullptr) skipped_count->add();
      } else {
        runnable.push_back(job_index);
      }
    }

    if (!runnable.empty()) {
      if (hooks != nullptr && hooks->begin) hooks->begin(report.epochs, runnable);
      for (std::size_t job_index : runnable) ready_at[job_index].restart();

      if (pool == nullptr) {
        for (std::size_t job_index : runnable) run_body(job_index);
      } else {
        // The barrier lives on this stack frame. Each task counts down and
        // notifies under the mutex, so this thread can only see zero once
        // the last task is done with the mutex and condition variable.
        std::size_t pending = runnable.size();
        std::mutex wave_mutex;
        std::condition_variable wave_done;
        std::vector<std::function<void()>> tasks;
        tasks.reserve(runnable.size());
        for (std::size_t job_index : runnable) {
          tasks.push_back([&, job_index] {
            run_body(job_index);
            std::lock_guard<std::mutex> lock(wave_mutex);
            if (--pending == 0) wave_done.notify_all();
          });
        }
        pool->submit_batch(std::move(tasks));
        std::unique_lock<std::mutex> lock(wave_mutex);
        wave_done.wait(lock, [&] { return pending == 0; });
      }

      std::vector<std::size_t> succeeded;
      succeeded.reserve(runnable.size());
      for (std::size_t job_index : runnable) {
        if (report.jobs[job_index].status.ok()) succeeded.push_back(job_index);
      }
      if (hooks != nullptr && hooks->commit) {
        Status committed = hooks->commit(report.epochs, succeeded);
        if (!committed.ok()) {
          // The wave's outputs never landed: every "succeeded" body is in
          // fact failed, and its dependents must not run.
          for (std::size_t job_index : succeeded) {
            report.jobs[job_index].status = committed;
          }
        }
      }
      for (std::size_t job_index : runnable) {
        ++report.executed;
        if (executed_count != nullptr) executed_count->add();
        if (!report.jobs[job_index].status.ok()) {
          ++report.failed;
          if (failed_count != nullptr) failed_count->add();
        }
      }
      ++report.epochs;
      if (epoch_count != nullptr) epoch_count->add();
      if (epoch_jobs != nullptr) epoch_jobs->observe(static_cast<double>(runnable.size()));
    }

    // Poison propagation happens between waves only — dependents are all
    // in later waves, so no body ever races these flags.
    for (std::size_t job_index : wave) {
      const JobOutcome& outcome = report.jobs[job_index];
      if (!outcome.status.ok()) {
        for (std::size_t dependent : dependents[job_index]) {
          poisoned[dependent] = true;
        }
      }
    }
  }

  report.wall_ms = schedule_clock.elapsed_ms();
  return report;
}

}  // namespace comt::sched
