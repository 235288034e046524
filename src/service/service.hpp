// The rebuild service: a multi-tenant build-farm daemon over the registry
// and the coMtainer backend.
//
// The paper's workflow ends with one HPC system pulling one extended image
// and calling comtainer_rebuild. At production scale that call sits behind a
// service (the centralized conversion daemons of the Sarus suite, the
// per-target specialization pipeline of XaaS): many users submit images, many
// target systems want each image specialized for themselves. RebuildService
// is that daemon:
//
//   submit ─▶ admission queue ─▶ coalesce ─▶ per-system worker pool ─▶
//             (bounded, priority   (same image      pull → rebuild → push
//              classes, load        + system key
//              shedding)            share one job)
//
//  - Admission is tenant-aware. Every request names a tenant (empty =
//    "default"); each tenant holds a token-bucket rate quota, and over-quota
//    arrivals are shed immediately in JobState::throttled — a hot tenant
//    saturates its own budget, never the fleet. Admitted jobs land in
//    per-tenant queues (priority classes preserved within a tenant) that
//    workers drain by deficit-weighted round-robin, so a tenant flooding
//    Priority::interactive cannot starve another tenant's normal jobs.
//  - Admission is bounded (ServiceOptions::queue_capacity). When the queue is
//    full, a higher-priority arrival evicts the newest lowest-priority queued
//    job; otherwise the arrival itself is shed. Shed jobs finish in
//    JobState::rejected.
//  - Concurrent requests for the same (extended-image manifest digest, target
//    system) attach to the in-flight job and share its result — one rebuild,
//    N tickets (JobTrace::coalesced marks the attached ones).
//  - Each registered target system owns a sched::ThreadPool of
//    workers_per_system workers, so independent images rebuild concurrently
//    per system and systems do not starve each other. One content-addressed
//    sched::CompileCache is shared across every tenant and system.
//  - Transient faults (Errc::failed — injected registry faults, spurious
//    compile failures, tool exit != 0) are retried up to max_attempts with
//    exponential backoff plus deterministic jitter; recorded delays are
//    monotonically non-decreasing. Any other error category is permanent and
//    surfaces in the ticket immediately.
//  - drain() stops admission, fails still-queued jobs with
//    JobState::drained, and completes every in-flight job, so the registry
//    only ever holds fully pushed results.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend.hpp"
#include "durable/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oci/fsck.hpp"
#include "oci/oci.hpp"
#include "registry/registry.hpp"
#include "sched/compile_cache.hpp"
#include "sched/thread_pool.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"

namespace comt::service {

/// Admission priority. Higher classes are served first and shed last.
enum class Priority { batch = 0, normal = 1, interactive = 2 };

/// Lifecycle of a submitted rebuild.
enum class JobState {
  queued,     ///< admitted, waiting for a worker
  running,    ///< a worker is executing pull → rebuild → push
  succeeded,  ///< result pushed to the hub registry (see TicketStatus::output)
  failed,     ///< permanent failure — retries exhausted or non-retryable error
  rejected,   ///< shed at admission (queue full / evicted by higher priority)
  throttled,  ///< shed at admission — the tenant exceeded its rate quota
  expired,    ///< deadline passed while queued, or a retry would overshoot it
  drained,    ///< still queued when drain()/shutdown began
};

const char* to_string(JobState state);
bool is_terminal(JobState state);

/// Handle to a submitted request. Tickets are never reused.
using Ticket = std::uint64_t;

struct SubmitRequest {
  std::string name;  ///< extended image reference in the hub registry…
  std::string tag;   ///< …as pushed by the user ("org/app", "1.0+coM")
  std::string system;  ///< fingerprint of a registered target system
  Priority priority = Priority::normal;
  /// Deadline from admission, honored across the whole retry loop: a job
  /// popped later than this fails as expired, and a retry whose backoff would
  /// land past it expires instead of retrying (running attempts are never
  /// killed). 0 = no deadline.
  double deadline_ms = 0;
  /// Who is asking. Empty maps to the "default" tenant. Quotas, fair-queue
  /// weight, and the per-tenant stats breakdown all key off this.
  std::string tenant{};
};

/// Per-tenant admission policy: fair-share weight plus a token-bucket rate
/// quota. Unlisted tenants get ServiceOptions::default_tenant.
struct TenantPolicy {
  /// Deficit-round-robin share relative to other tenants on the same target
  /// system (2.0 drains twice as fast as 1.0). Clamped to >= 0.01.
  double weight = 1.0;
  /// Token-bucket capacity in submissions. 0 disables the quota entirely
  /// (the default): every arrival is admitted.
  double quota_burst = 0;
  /// Bucket refill rate in submissions/second. With quota_burst > 0 and rate
  /// 0 the tenant gets a hard lifetime cap of quota_burst submissions.
  double quota_rate = 0;
};

/// Structured per-job diagnostics, shared by all coalesced tickets.
struct JobTrace {
  double queue_ms = 0;    ///< admission → worker pickup
  double pull_ms = 0;     ///< registry pulls, summed over attempts
  double rebuild_ms = 0;  ///< comtainer_rebuild, summed over attempts
  double push_ms = 0;     ///< result pushes, summed over attempts
  /// Backoff delay before each retry; monotonically non-decreasing.
  std::vector<double> backoff_ms;
  std::uint32_t compile_jobs = 0;  ///< scheduler jobs, summed over attempts
  std::uint32_t cache_hits = 0;    ///< compile-cache replays (shared cache)
  std::uint32_t cache_misses = 0;
  int attempts = 0;        ///< executions of pull→rebuild→push (retries + 1)
  bool coalesced = false;  ///< this ticket attached to another's in-flight job
  bool crashed = false;    ///< the job died at an injected crash site
  bool fleet_reuse = false;   ///< served from another replica's published result
  bool lease_stolen = false;  ///< this replica took over an expired lease
  double lease_wait_ms = 0;   ///< spent waiting on another replica's lease
  /// Compile jobs replayed from write-ahead journal commit records instead of
  /// executing (crash-resume and journaled retries), summed over attempts.
  std::uint32_t journal_replayed = 0;
  /// Commit records this job appended to its journal, summed over attempts.
  std::uint32_t journal_committed = 0;
};
// Every finished ticket keeps one JobTrace (and so does a client that
// records them); the counters are 32-bit to keep it at 96 bytes.
static_assert(sizeof(JobTrace) <= 96, "JobTrace grew: every finished ticket keeps one");

/// Snapshot of one ticket.
struct TicketStatus {
  JobState state = JobState::queued;
  Status result;       ///< the failure detail for failed/rejected/expired/drained
  std::string output;  ///< "name:tag" of the rebuilt image in the hub when succeeded
  JobTrace trace;
};

/// One tenant target: everything a rebuild for that system needs.
struct TargetSystem {
  const sysmodel::SystemProfile* profile = nullptr;
  const pkg::Repository* repo = nullptr;  ///< the system's optimized stack
  /// Template layout holding the system's Sysenv image; every job works on a
  /// private copy, so jobs never see each other's intermediate state. Copies
  /// share blob bytes and unpacked layers: add_system checks the stored copy
  /// with fsck and unpacks the Sysenv into it once, so each job's copy starts
  /// with the Sysenv already unpacked.
  oci::Layout base_layout;
  std::string sysenv_tag;
  /// Adapters applied to every rebuild for this system, in order.
  std::vector<const core::SystemAdapter*> adapters;
};

/// Stable identity of a target system: the profile facets the rebuild output
/// depends on. Two hosts with equal fingerprints can share rebuilt images.
std::string fingerprint(const sysmodel::SystemProfile& profile);

/// Cross-replica coordination hook (implemented by fleet::LeaseCoordinator).
/// A service with a coordinator asks it before executing each distinct job:
/// either this replica wins the global lease and builds, or another replica
/// already built (or is building) and the grant hands back the published
/// result. In-process coalescing stays as-is — the coordinator extends the
/// same dedup across replica boundaries.
class FleetCoordinator {
 public:
  virtual ~FleetCoordinator() = default;

  /// acquire()'s decision for a job about to execute.
  struct Grant {
    bool reuse = false;       ///< another replica's result serves this job
    std::string output;       ///< "name:tag" in the shared hub when reuse
    std::uint64_t epoch = 0;  ///< lease epoch this replica holds when !reuse
    bool stolen = false;      ///< the lease was taken over from a dead holder
    double wait_ms = 0;       ///< time spent waiting on the current holder
  };

  enum class Outcome { succeeded, failed, crashed };

  /// Blocks until `key` (the coalescing key: manifest digest + "|" + system
  /// fingerprint) is either this replica's to build (lease held) or already
  /// served (reuse grant). `parent` is the job's span.
  virtual Result<Grant> acquire(const std::string& key, obs::SpanId parent) = 0;

  /// Reports how the build under the lease ended. `output` is the published
  /// "name:tag" on success. Not called for reuse grants, and deliberately
  /// not called when the job died at an injected crash site — a dead process
  /// releases nothing, the lease TTL hands the work over. `parent` is the
  /// job's span.
  virtual void release(const std::string& key, Outcome outcome, const std::string& output,
                       std::uint64_t epoch, obs::SpanId parent) = 0;
};

struct ServiceOptions {
  /// Bound on jobs queued across all systems (running jobs do not count).
  std::size_t queue_capacity = 64;
  /// Worker threads per registered target system; each system's pool runs
  /// this many for the service's whole life.
  std::size_t workers_per_system = 2;
  /// Admission policy for tenants not listed in `tenants`. The default —
  /// weight 1, no quota — reproduces the pre-tenant behaviour exactly.
  TenantPolicy default_tenant;
  /// Per-tenant policy overrides, keyed by SubmitRequest::tenant.
  std::map<std::string, TenantPolicy> tenants;
  /// `threads` passed to each comtainer_rebuild (intra-job parallelism).
  std::size_t rebuild_threads = 1;
  /// Executions of pull→rebuild→push per job before the failure is permanent.
  int max_attempts = 3;
  /// First retry delay; doubles per retry, capped at backoff_max_ms, then
  /// scaled by a deterministic jitter in [1, 2).
  double backoff_base_ms = 0.2;
  double backoff_max_ms = 50.0;
  /// When false, backoff delays are recorded in the trace but not slept —
  /// deterministic schedule tests don't have to wait out the clock.
  bool sleep_on_backoff = true;
  /// Passed to every rebuild as RebuildOptions::fault_injector. To also
  /// inject registry faults, arm the same injector on the hub registry.
  support::FaultInjector* faults = nullptr;
  /// Optional write-ahead journal store making every rebuild crash-safe.
  /// Each job opens a journal keyed "name:tag|system" (metadata = the submit
  /// request as JSON) and removes it once its result is pushed. The store
  /// outlives the service the way files outlive a process: hand the same
  /// store to the next service incarnation and call recover(). While a job's
  /// journal is live, the job's source image is pinned in the hub so
  /// Registry::remove/gc cannot sweep blobs a resume still needs.
  /// Crash injection requires rebuild_threads == 1 (a crash must unwind the
  /// submitting thread, not a pool worker). A JournalStore constructed over
  /// a store::KvStore (e.g. a DiskStore directory) survives the process
  /// itself, not just the service object.
  durable::JournalStore* journals = nullptr;
  /// Optional backing store for the shared compile cache. When set, every
  /// cached compile writes through to "cache/<key>" and the service
  /// constructor hydrates whatever entries the store already holds — a
  /// restarted service over the same store starts with a warm cache
  /// (RecoveryReport::cache_entries_recovered reports how warm). Point it
  /// at the same store the journal store uses for one-directory restarts.
  std::shared_ptr<store::KvStore> store;
  /// Optional cross-replica coordinator. When set, every distinct job
  /// acquires the global lease for its coalescing key before executing;
  /// jobs another replica already served finish as fleet_reuse without
  /// touching the toolchain. A coordinator error never fails the job — the
  /// replica degrades to an uncoordinated build (worst case a duplicate,
  /// still bit-identical) and counts "service.coordinator_errors".
  FleetCoordinator* coordinator = nullptr;
  /// Replica identity, annotated on job spans and written into lease
  /// records so takeovers are attributable.
  std::string replica_id;
  /// Optional tracer. Each distinct job emits a "service.job" span; every
  /// attempt nests an "attempt:<n>" span under it, which in turn parents the
  /// attempt's "service.pull"/"service.push" spans and the rebuild's own
  /// "rebuild" span tree — one trace covers admission through blob push.
  obs::Tracer* tracer = nullptr;
  /// Optional metrics registry. When set, every service counter
  /// ("service.*"), worker-pool ("service.pool.*", including the parks
  /// counter — see sched::ThreadPool::set_metrics), journal, and rebuild
  /// metric lands here; when null the service keeps them in a private
  /// registry. ServiceStats is a point-in-time view over whichever registry
  /// is active.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What recover() found and did after a restart.
struct RecoveryReport {
  /// Hub integrity scan + repair (torn blobs a crash left behind, …).
  oci::FsckReport fsck;
  /// Tickets of interrupted rebuilds resubmitted from their journals; their
  /// committed compile jobs replay instead of re-executing.
  std::vector<Ticket> resubmitted;
  std::size_t journals_found = 0;
  /// Journals dropped because their request can no longer be served (image
  /// or target system gone, metadata unreadable).
  std::size_t skipped = 0;
  /// Compile-cache entries hydrated from ServiceOptions::store at
  /// construction — committed work a resumed rebuild replays as cache hits.
  std::size_t cache_entries_recovered = 0;
};

/// One tenant's slice of the service counters, assembled from the
/// "service.tenant.<name>.*" instruments (so it survives to_json export and
/// merges across fleet replicas sharing one registry).
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;        ///< rejected at admission or evicted
  std::uint64_t throttled = 0;   ///< shed by the tenant's own rate quota
  double p99_queue_wait_ms = 0;  ///< admission → pop, from the tenant histogram
};

/// Aggregate counters. Ticket counters count submissions; job counters count
/// distinct rebuilds (coalesced tickets share one job). A ServiceStats is a
/// point-in-time view assembled from the service's metrics registry (the
/// "service.*" counters and gauges), not independent state.
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< tickets issued
  std::uint64_t coalesced = 0;  ///< tickets attached to an in-flight job
  std::uint64_t admitted = 0;   ///< jobs that entered the queue
  std::uint64_t shed = 0;       ///< jobs rejected at admission or evicted
  std::uint64_t throttled = 0;  ///< jobs shed by per-tenant rate quotas
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t drained = 0;
  std::uint64_t retries = 0;  ///< backoff delays taken across all jobs
  std::uint64_t crashed = 0;  ///< jobs that died at an injected crash site
  std::uint64_t fleet_reused = 0;  ///< jobs served from another replica's result
  std::uint64_t coordinator_errors = 0;  ///< acquire() failures (degraded builds)
  std::uint64_t compile_cache_hits = 0;
  std::uint64_t compile_cache_misses = 0;
  std::uint64_t compile_cache_inserts = 0;   ///< entries stored by rebuilds
  std::uint64_t compile_cache_hydrated = 0;  ///< entries recovered from the store
  std::uint64_t compile_cache_remote_hits = 0;  ///< served via the store fallback
  double queue_ms = 0, pull_ms = 0, rebuild_ms = 0, push_ms = 0;  ///< summed
  /// Per-tenant breakdown, keyed by tenant name ("" maps to "default").
  std::map<std::string, TenantStats> tenants;
};

class RebuildService {
 public:
  /// The service serves images out of (and pushes results back into) `hub`,
  /// which must outlive it. The registry is shared with outside pushers —
  /// it is thread-safe.
  explicit RebuildService(registry::Registry& hub, ServiceOptions options = {});

  /// Drains: queued jobs fail as drained, in-flight jobs complete.
  ~RebuildService();

  RebuildService(const RebuildService&) = delete;
  RebuildService& operator=(const RebuildService&) = delete;

  /// Registers a tenant target under `fingerprint` and spins up its worker
  /// pool. Register every system before sharing the service across threads.
  /// Refuses a target whose base layout fails fsck (Errc::corrupt), then
  /// unpacks its Sysenv once into the stored copy of that layout.
  Status add_system(std::string fingerprint, TargetSystem target);

  /// Submits a rebuild. Returns a ticket immediately; the ticket may already
  /// be terminal (rejected) when the request was shed at admission. Fails
  /// only for requests the queue can never serve: unknown image, unknown
  /// system, or a draining service.
  Result<Ticket> submit(const SubmitRequest& request);

  /// Snapshot of a ticket's current state.
  Result<TicketStatus> status(Ticket ticket) const;

  /// Blocks until the ticket is terminal and returns its final status.
  Result<TicketStatus> wait(Ticket ticket) const;
  // Every ticket ever issued keeps answering both. A finished ticket keeps
  // only its share of the job's outcome (state, result, output, trace), at
  // most 0.3 KiB of heap, which `bench/service_throughput --smoke` gates.

  /// Holds job starts (admission continues) until resume() — lets tests and
  /// benchmarks build a known queue state deterministically.
  void pause();
  void resume();

  /// Graceful shutdown: stops admission, fails every still-queued job with
  /// JobState::drained, and blocks until all in-flight jobs finished (their
  /// results are pushed normally). Idempotent.
  void drain();

  /// Crash recovery, run once after constructing a service over a hub and
  /// journal store a previous incarnation crashed on: fscks + repairs the
  /// hub, then resubmits every surviving journal's request. Resumed rebuilds
  /// replay their committed compile jobs from the journal and produce images
  /// bit-identical to an uninterrupted run. Journals whose image or system
  /// vanished are dropped and counted as skipped.
  Result<RecoveryReport> recover();

  ServiceStats stats() const;
  std::size_t queue_depth() const;
  std::size_t running() const;

 private:
  struct Job;
  struct TenantQueue;
  struct SystemState;
  struct TenantState;
  /// What status() reports for a job's tickets, all of which point at it.
  /// Written under mutex_ while the job lives; immutable once the job is
  /// terminal, when the job itself (request, coalescing key, span, ticket
  /// list, …) is released and this is all a finished ticket keeps. Kept
  /// small on purpose: the failure detail only when there is one, and the
  /// output as one of outputs_, since re-adaptations publish the same
  /// "name:tag" again and again.
  struct JobOutcome {
    JobTrace trace;
    const std::string* output = nullptr;  ///< an element of outputs_, once pushed
    std::unique_ptr<const Error> error;   ///< the result, when it is a failure
    JobState state = JobState::queued;
  };
  struct TicketRecord {
    const JobOutcome* outcome = nullptr;  ///< an element of outcomes_
    bool coalesced = false;
  };

  void run_next(SystemState& sys);
  /// Deficit-weighted round-robin pick across the system's tenant queues
  /// (priority order within a tenant). Null when every queue is empty.
  std::shared_ptr<Job> pick_job_locked(SystemState& sys);
  /// Token-bucket check for one arrival; false = shed as throttled.
  bool take_quota_token_locked(const std::string& tenant);
  TenantState& tenant_state_locked(const std::string& tenant);
  /// Removes the globally worst (lowest-priority, newest) queued job to make
  /// room for `arriving`; returns it, or null when nothing queued ranks
  /// below the arrival.
  std::shared_ptr<Job> evict_for_locked(Priority arriving);
  void execute(const TargetSystem& target, const SubmitRequest& request, Ticket seed,
               obs::SpanId job_span, const obs::Stopwatch& admitted, JobTrace& trace,
               Status& result, std::string& output, bool& deadline_expired);
  Status attempt_once(const TargetSystem& target, const SubmitRequest& request,
                      obs::SpanId attempt_span, JobTrace& trace, std::string& output);
  void finalize_locked(Job& job, JobState state, Status result);
  /// Issues the next ticket, pointing at `outcome`.
  Ticket issue_ticket_locked(const JobOutcome* outcome, bool coalesced);
  /// The record of `ticket`; Errc::not_found for a ticket never issued.
  Result<TicketRecord> ticket_locked(Ticket ticket) const;
  Result<TicketStatus> status_locked(Ticket ticket) const;
  obs::Counter& counter(std::string_view name) { return metrics_->counter(name); }
  obs::Counter& tenant_counter(const std::string& tenant, std::string_view which);

  registry::Registry& hub_;
  ServiceOptions options_;
  sched::CompileCache cache_;  ///< shared across all tenants and systems
  /// Backing store for stats() when no external registry is supplied.
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< options_.metrics or &own_metrics_

  mutable std::mutex mutex_;
  mutable std::condition_variable done_cv_;  ///< signalled on job completion
  std::condition_variable start_cv_;         ///< pause()/resume()/drain() gate
  std::map<std::string, std::unique_ptr<SystemState>> systems_;
  /// Every ticket ever issued, ticket t at index t - 1 (tickets count up
  /// from 1 and are never reused), and the outcome of every job they belong
  /// to. A deque never moves its elements, so the records' pointers hold.
  std::deque<TicketRecord> tickets_;
  std::deque<JobOutcome> outcomes_;
  /// Every distinct output a job published, kept once for all its tickets.
  std::set<std::string, std::less<>> outputs_;
  std::map<std::string, std::shared_ptr<Job>> active_;  ///< coalescing index
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;  ///< quota buckets
  std::uint64_t next_seq_ = 0;
  std::size_t queued_count_ = 0;
  std::size_t running_count_ = 0;
  bool paused_ = false;
  bool draining_ = false;
};

}  // namespace comt::service
