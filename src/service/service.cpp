#include "service/service.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "json/json.hpp"
#include "obs/stopwatch.hpp"

namespace comt::service {
namespace {

/// Local tag a job pulls the extended image under inside its private
/// workspace; comtainer_rebuild derives "work+coMre" from it.
constexpr std::string_view kWorkTag = "work+coM";
constexpr std::string_view kWorkRebuiltTag = "work+coMre";

/// Deterministic jitter in [0, 1): splitmix64 finalizer over (ticket, attempt).
/// No global RNG — the same job retries with the same delays on every run.
double jitter01(std::uint64_t ticket, int attempt) {
  std::uint64_t x = ticket * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(attempt);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Transient failures are retried; everything else (not_found, corrupt,
/// unsupported, …) is a property of the request and permanent.
bool is_retryable(const Error& error) { return error.code == Errc::failed; }

/// Journal-store key of a request: one journal per (image reference, system).
std::string journal_key(const SubmitRequest& request) {
  return request.name + ":" + request.tag + "|" + request.system;
}

/// The submit request, serialized into the journal metadata so recover() on a
/// later service incarnation can rebuild and resubmit it.
std::string request_metadata(const SubmitRequest& request) {
  json::Object object;
  object.emplace_back("name", json::Value(request.name));
  object.emplace_back("tag", json::Value(request.tag));
  object.emplace_back("system", json::Value(request.system));
  object.emplace_back("priority",
                      json::Value(static_cast<double>(static_cast<int>(request.priority))));
  if (!request.tenant.empty()) object.emplace_back("tenant", json::Value(request.tenant));
  return json::serialize(json::Value(std::move(object)));
}

bool parse_request_metadata(const std::string& metadata, SubmitRequest& request) {
  auto parsed = json::parse(metadata);
  if (!parsed.ok() || !parsed.value().is_object()) return false;
  for (const auto& [field, value] : parsed.value().as_object()) {
    if (field == "name" && value.is_string()) request.name = value.as_string();
    if (field == "tag" && value.is_string()) request.tag = value.as_string();
    if (field == "system" && value.is_string()) request.system = value.as_string();
    if (field == "tenant" && value.is_string()) request.tenant = value.as_string();
    if (field == "priority" && value.is_number()) {
      request.priority = static_cast<Priority>(static_cast<int>(value.as_number()));
    }
  }
  return !request.name.empty() && !request.tag.empty() && !request.system.empty();
}

/// Metric-facing tenant name: the anonymous tenant reads as "default".
std::string tenant_display(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

/// Releases the hub pins a journaled attempt takes on its source image — on
/// every exit path, including an injected crash unwinding.
class HubPinGuard {
 public:
  HubPinGuard(registry::Registry& hub, const SubmitRequest& request)
      : hub_(&hub), name_(request.name), tag_(request.tag) {
    pinned_ = hub_->pin(name_, tag_).ok();
  }
  ~HubPinGuard() {
    if (pinned_) (void)hub_->unpin(name_, tag_);
  }
  HubPinGuard(const HubPinGuard&) = delete;
  HubPinGuard& operator=(const HubPinGuard&) = delete;

 private:
  registry::Registry* hub_;
  std::string name_, tag_;
  bool pinned_ = false;
};

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::succeeded: return "succeeded";
    case JobState::failed: return "failed";
    case JobState::rejected: return "rejected";
    case JobState::throttled: return "throttled";
    case JobState::expired: return "expired";
    case JobState::drained: return "drained";
  }
  return "unknown";
}

bool is_terminal(JobState state) {
  return state != JobState::queued && state != JobState::running;
}

std::string fingerprint(const sysmodel::SystemProfile& profile) {
  return profile.name + "/" + profile.arch + "/" + profile.native_toolchain + "/" +
         profile.native_march;
}

/// One distinct rebuild: possibly many tickets, exactly one execution.
struct RebuildService::Job {
  SubmitRequest request;
  std::string key;     ///< manifest digest + system — the coalescing key
  std::string tenant;  ///< SubmitRequest::tenant, fixed at submission
  std::vector<Ticket> tickets;
  /// What the tickets report: an element of outcomes_, which outlives the job.
  JobOutcome* outcome = nullptr;
  obs::Stopwatch enqueued;  ///< running since admission; read once at pickup
  obs::Span span;           ///< "service.job", ends when the job finalizes
  std::pair<int, std::uint64_t> queue_key;  ///< position while queued
};

/// One tenant's slice of a system's admission queue, ordered by
/// (priority desc, arrival order) — priority classes hold within a tenant.
struct RebuildService::TenantQueue {
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Job>> queue;
  double weight = 1.0;   ///< DRR quantum, refreshed from the policy on enqueue
  double deficit = 0;    ///< accumulated service credit, spent one job at a time
  bool active = false;   ///< currently on the system's DRR ring
};

/// Per-target state: the target config, its worker pool, and its slice of
/// the admission queue — per-tenant queues drained by deficit-weighted
/// round-robin (pick_job_locked).
struct RebuildService::SystemState {
  TargetSystem target;
  std::unique_ptr<sched::ThreadPool> pool;
  std::map<std::string, TenantQueue> tenants;
  std::deque<std::string> drr;  ///< round-robin ring of active tenants
  std::size_t queued = 0;       ///< jobs across all tenant queues
};

/// Per-tenant admission bookkeeping: the resolved policy plus the token
/// bucket (tokens are submissions; the bucket starts full).
struct RebuildService::TenantState {
  TenantPolicy policy;
  double tokens = 0;
  obs::Stopwatch last_refill;
};

RebuildService::RebuildService(registry::Registry& hub, ServiceOptions options)
    : hub_(hub), options_(std::move(options)) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.workers_per_system == 0) options_.workers_per_system = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  metrics_ = options_.metrics != nullptr ? options_.metrics : &own_metrics_;
  if (options_.journals != nullptr) options_.journals->set_metrics(metrics_);
  // Metrics before attach, so hydrated entries count in compile_cache.*.
  cache_.set_metrics(metrics_);
  if (options_.store != nullptr) cache_.attach(options_.store);
}

RebuildService::~RebuildService() { drain(); }

Status RebuildService::add_system(std::string fingerprint, TargetSystem target) {
  if (target.profile == nullptr || target.repo == nullptr) {
    return make_error(Errc::invalid_argument,
                      "service: target system needs a profile and a repository");
  }
  COMT_TRY(oci::Image sysenv, target.base_layout.find_image(target.sysenv_tag));
  // Refuse damaged bytes before any ticket builds on them, then unpack the
  // Sysenv once into this stored copy: every attempt's workspace copy shares
  // the unpacked layers instead of un-tarring them again.
  COMT_TRY_STATUS(target.base_layout.fsck());
  COMT_TRY_STATUS(target.base_layout.flatten(sysenv));
  std::lock_guard<std::mutex> lock(mutex_);
  if (systems_.count(fingerprint) != 0) {
    return make_error(Errc::already_exists, "service: system already registered: " + fingerprint);
  }
  auto state = std::make_unique<SystemState>();
  state->target = std::move(target);
  state->pool = std::make_unique<sched::ThreadPool>(options_.workers_per_system);
  state->pool->set_metrics(metrics_, "service.pool");
  systems_.emplace(std::move(fingerprint), std::move(state));
  return Status::success();
}

RebuildService::TenantState& RebuildService::tenant_state_locked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    auto state = std::make_unique<TenantState>();
    auto policy = options_.tenants.find(tenant);
    state->policy = policy != options_.tenants.end() ? policy->second
                                                    : options_.default_tenant;
    if (state->policy.weight < 0.01) state->policy.weight = 0.01;
    state->tokens = state->policy.quota_burst;  // buckets start full
    it = tenants_.emplace(tenant, std::move(state)).first;
  }
  return *it->second;
}

bool RebuildService::take_quota_token_locked(const std::string& tenant) {
  TenantState& state = tenant_state_locked(tenant);
  if (state.policy.quota_burst <= 0) return true;  // quota disabled
  const double refill =
      state.policy.quota_rate * (state.last_refill.elapsed_ms() / 1000.0);
  state.last_refill.restart();
  state.tokens = std::min(state.policy.quota_burst, state.tokens + refill);
  if (state.tokens < 1.0) return false;
  state.tokens -= 1.0;
  return true;
}

obs::Counter& RebuildService::tenant_counter(const std::string& tenant,
                                             std::string_view which) {
  return metrics_->counter("service.tenant." + tenant_display(tenant) + "." +
                           std::string(which));
}

std::shared_ptr<RebuildService::Job> RebuildService::evict_for_locked(Priority arriving) {
  // Globally worst queued job: the highest queue_key (lowest priority class,
  // newest arrival) across every system's tenant queues.
  SystemState* worst_sys = nullptr;
  TenantQueue* worst_queue = nullptr;
  std::shared_ptr<Job> worst;
  for (auto& [name, sys] : systems_) {
    for (auto& [tenant, tq] : sys->tenants) {
      if (tq.queue.empty()) continue;
      auto last = std::prev(tq.queue.end());
      if (worst == nullptr || last->first > worst->queue_key) {
        worst = last->second;
        worst_queue = &tq;
        worst_sys = sys.get();
      }
    }
  }
  if (worst == nullptr ||
      static_cast<int>(worst->request.priority) >= static_cast<int>(arriving)) {
    return nullptr;
  }
  worst_queue->queue.erase(worst->queue_key);
  --worst_sys->queued;
  --queued_count_;
  return worst;
}

Result<Ticket> RebuildService::submit(const SubmitRequest& request) {
  // Resolve outside the service lock (the hub has its own).
  COMT_TRY(oci::Digest digest, hub_.resolve(request.name, request.tag));

  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    return make_error(Errc::failed, "service: draining, not accepting submissions");
  }
  auto sys_it = systems_.find(request.system);
  if (sys_it == systems_.end()) {
    return make_error(Errc::not_found, "service: unknown target system " + request.system);
  }
  SystemState& sys = *sys_it->second;

  counter("service.submitted").add();
  tenant_counter(request.tenant, "submitted").add();

  // Rate quota first — an over-quota tenant is shed at the front door, before
  // its arrival can even coalesce onto (and thereby ride along with) existing
  // work.
  if (!take_quota_token_locked(request.tenant)) {
    auto job = std::make_shared<Job>();
    job->request = request;
    job->tenant = request.tenant;
    job->outcome = &outcomes_.emplace_back();
    const Ticket ticket = issue_ticket_locked(job->outcome, /*coalesced=*/false);
    job->tickets = {ticket};
    counter("service.throttled").add();
    tenant_counter(request.tenant, "throttled").add();
    finalize_locked(*job, JobState::throttled,
                    make_error(Errc::failed, "service: tenant '" +
                                                 tenant_display(request.tenant) +
                                                 "' over rate quota"));
    return ticket;
  }

  // Coalesce: a queued or running job for the same (image digest, system)
  // serves this ticket too.
  std::string key = digest.value + "|" + request.system;
  if (auto active = active_.find(key); active != active_.end()) {
    const Ticket ticket = issue_ticket_locked(active->second->outcome, /*coalesced=*/true);
    active->second->tickets.push_back(ticket);
    counter("service.coalesced").add();
    return ticket;
  }

  auto job = std::make_shared<Job>();
  job->request = request;
  job->key = key;
  job->tenant = request.tenant;
  job->outcome = &outcomes_.emplace_back();
  const Ticket ticket = issue_ticket_locked(job->outcome, /*coalesced=*/false);
  job->tickets = {ticket};
  job->span = obs::maybe_span(options_.tracer, "service.job", obs::kNoSpan, "service");
  job->span.annotate("image", request.name + ":" + request.tag);
  job->span.annotate("system", request.system);
  if (!job->tenant.empty()) job->span.annotate("tenant", job->tenant);
  if (!options_.replica_id.empty()) job->span.annotate("replica", options_.replica_id);

  // Bounded admission with priority-aware load shedding: a full queue sheds
  // the newest lowest-priority queued job when the arrival outranks it,
  // otherwise the arrival itself.
  if (queued_count_ >= options_.queue_capacity) {
    if (std::shared_ptr<Job> worst = evict_for_locked(request.priority)) {
      counter("service.shed").add();
      tenant_counter(worst->tenant, "shed").add();
      finalize_locked(*worst, JobState::rejected,
                      make_error(Errc::failed,
                                 "service: load shed by a higher-priority arrival"));
    } else {
      counter("service.shed").add();
      tenant_counter(request.tenant, "shed").add();
      finalize_locked(*job, JobState::rejected,
                      make_error(Errc::failed, "service: admission queue full"));
      return ticket;
    }
  }

  counter("service.admitted").add();
  tenant_counter(request.tenant, "admitted").add();
  job->queue_key = {-static_cast<int>(request.priority), next_seq_++};
  TenantQueue& tq = sys.tenants[request.tenant];
  tq.weight = tenant_state_locked(request.tenant).policy.weight;
  tq.queue.emplace(job->queue_key, job);
  if (!tq.active) {
    tq.active = true;
    sys.drr.push_back(request.tenant);
  }
  ++sys.queued;
  ++queued_count_;
  active_[key] = job;
  sys.pool->submit([this, &sys] { run_next(sys); });
  return ticket;
}

std::shared_ptr<RebuildService::Job> RebuildService::pick_job_locked(SystemState& sys) {
  // Deficit round-robin over the active-tenant ring. Each visit grants the
  // tenant its weight in credit; one job costs one credit. A tenant with an
  // empty queue leaves the ring (and forfeits leftover deficit, so an idle
  // tenant cannot bank credit for a later burst). With a single tenant this
  // degenerates to the old strict (priority, arrival) order.
  while (!sys.drr.empty()) {
    const std::string tenant = sys.drr.front();
    TenantQueue& tq = sys.tenants[tenant];
    if (tq.queue.empty()) {
      tq.active = false;
      tq.deficit = 0;
      sys.drr.pop_front();
      continue;
    }
    if (tq.deficit >= 1.0) {
      tq.deficit -= 1.0;
      auto it = tq.queue.begin();
      std::shared_ptr<Job> job = it->second;
      tq.queue.erase(it);
      --sys.queued;
      --queued_count_;
      return job;
    }
    tq.deficit += tq.weight;
    sys.drr.pop_front();
    sys.drr.push_back(tenant);
  }
  return nullptr;
}

void RebuildService::run_next(SystemState& sys) {
  std::shared_ptr<Job> job;
  JobTrace trace;
  Ticket seed = 0;
  obs::SpanId job_span = obs::kNoSpan;
  obs::Stopwatch admitted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    start_cv_.wait(lock, [this] { return !paused_ || draining_; });
    // The queue may have shrunk under us (eviction, drain): one runner task
    // is submitted per admitted job, so a missing job just means this runner
    // has nothing to do.
    job = pick_job_locked(sys);
    if (job == nullptr) return;
    JobTrace& queued = job->outcome->trace;
    queued.queue_ms = job->enqueued.elapsed_ms();
    metrics_
        ->histogram("service.tenant." + tenant_display(job->tenant) + ".queue_wait_ms")
        .observe(queued.queue_ms);
    if (job->request.deadline_ms > 0 && queued.queue_ms > job->request.deadline_ms) {
      counter("service.expired").add();
      finalize_locked(*job, JobState::expired,
                      make_error(Errc::failed, "service: queue-wait deadline exceeded"));
      return;
    }
    job->outcome->state = JobState::running;
    ++running_count_;
    // Work on a private copy of the trace: status() snapshots the outcome's
    // trace under the lock while this worker runs. The ticket seeding the
    // backoff jitter is captured here too — the tickets vector can grow
    // concurrently as requests coalesce onto this job.
    trace = queued;
    seed = job->tickets.front();
    job_span = job->span.id();
    admitted = job->enqueued;  // the deadline clock, shared with the retry loop
  }

  // The heavy part — no service lock held. job->request/key are immutable
  // after submit, so reading them unlocked is safe.
  Status result = Status::success();
  std::string output;
  bool skip_execute = false;
  bool hold_lease = false;
  std::uint64_t lease_epoch = 0;
  if (options_.coordinator != nullptr) {
    auto grant = options_.coordinator->acquire(job->key, job_span);
    if (grant.ok()) {
      trace.lease_wait_ms += grant.value().wait_ms;
      if (grant.value().reuse) {
        // Another replica already built this key; adopt its published image.
        trace.fleet_reuse = true;
        output = grant.value().output;
        skip_execute = true;
        counter("service.fleet_reused").add();
      } else {
        hold_lease = true;
        lease_epoch = grant.value().epoch;
        trace.lease_stolen = grant.value().stolen;
      }
    } else {
      // Coordination failing must never fail the build: degrade to an
      // uncoordinated rebuild. Worst case is a duplicate compile — wasted
      // work, but bit-identical output.
      counter("service.coordinator_errors").add();
    }
  }
  bool deadline_expired = false;
  if (!skip_execute) {
    execute(sys.target, job->request, seed, job_span, admitted, trace, result, output,
            deadline_expired);
  }
  if (hold_lease) {
    if (trace.crashed) {
      // The "process" died at an injected crash site still holding the
      // lease. A dead process releases nothing: the record stays in the
      // store until its TTL lapses and another replica steals it.
    } else {
      options_.coordinator->release(job->key,
                                    result.ok() ? FleetCoordinator::Outcome::succeeded
                                                : FleetCoordinator::Outcome::failed,
                                    output, lease_epoch, job_span);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_count_;
    job->outcome->trace = std::move(trace);
    if (!output.empty()) job->outcome->output = &*outputs_.insert(std::move(output)).first;
    if (result.ok()) {
      counter("service.succeeded").add();
      finalize_locked(*job, JobState::succeeded, Status::success());
    } else if (deadline_expired) {
      counter("service.expired").add();
      finalize_locked(*job, JobState::expired, std::move(result));
    } else {
      counter("service.failed").add();
      if (job->outcome->trace.crashed) counter("service.crashed").add();
      finalize_locked(*job, JobState::failed, std::move(result));
    }
  }
}

void RebuildService::execute(const TargetSystem& target, const SubmitRequest& request,
                             Ticket seed, obs::SpanId job_span,
                             const obs::Stopwatch& admitted, JobTrace& trace,
                             Status& result, std::string& output,
                             bool& deadline_expired) {
  Status last = Status::success();
  double prev_delay_ms = 0;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    trace.attempts = attempt;
    obs::Span attempt_span = obs::maybe_span(
        options_.tracer, "attempt:" + std::to_string(attempt), job_span, "service");
    Status status = Status::success();
    try {
      status = attempt_once(target, request, attempt_span.id(), trace, output);
    } catch (const support::CrashInjected& crash) {
      // The in-process stand-in for the rebuild dying (SIGKILL, node loss).
      // No retry: the journal stays in the store, and recover() on the next
      // service incarnation resumes the work from it.
      trace.crashed = true;
      result = make_error(Errc::failed, "service: rebuild crashed at injected site '" +
                                            crash.site + "'; journal retained, " +
                                            "recover() resumes it");
      return;
    }
    if (status.ok()) {
      result = Status::success();
      return;
    }
    last = status;
    if (!is_retryable(status.error()) || attempt == options_.max_attempts) break;

    // Exponential backoff with deterministic jitter. The explicit clamp to
    // the previous delay keeps the sequence monotonically non-decreasing
    // even once the exponential curve saturates at backoff_max_ms.
    double delay = options_.backoff_base_ms * std::pow(2.0, attempt - 1);
    delay = std::min(delay, options_.backoff_max_ms);
    delay *= 1.0 + jitter01(seed, attempt);
    delay = std::max(delay, prev_delay_ms);

    // The deadline spans the whole retry loop, measured from admission: a
    // backoff that would land the next attempt past it expires the job now
    // instead of burning a retry that could never be waited for. The skipped
    // delay is deliberately not recorded in backoff_ms — it was never taken.
    if (request.deadline_ms > 0 && admitted.elapsed_ms() + delay > request.deadline_ms) {
      deadline_expired = true;
      result = make_error(
          Errc::failed,
          "service: retry backoff would overshoot the deadline; expired after " +
              std::to_string(trace.attempts) + " attempt(s): " + last.error().message);
      return;
    }

    prev_delay_ms = delay;
    trace.backoff_ms.push_back(delay);
    attempt_span.annotate("backoff_ms", static_cast<std::uint64_t>(delay * 1000));
    attempt_span.end();  // the backoff sleep is queueing, not attempt work
    if (options_.sleep_on_backoff) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
    }
  }
  result = make_error(
      last.error().code,
      "service: rebuild of " + request.name + ":" + request.tag + " for " +
          request.system + " failed after " + std::to_string(trace.attempts) +
          " attempt(s): " + last.error().message);
}

Status RebuildService::attempt_once(const TargetSystem& target, const SubmitRequest& request,
                                    obs::SpanId attempt_span, JobTrace& trace,
                                    std::string& output) {
  // Every attempt starts from a pristine private workspace, so a failed
  // attempt leaves no partial state behind — the hub only ever sees a
  // complete push. Journaled attempts are the exception by design: committed
  // compile jobs survive in the journal and replay into the next attempt's
  // fresh workspace.
  oci::Layout workspace = target.base_layout;

  std::shared_ptr<durable::Journal> journal;
  std::optional<HubPinGuard> hub_pins;
  if (options_.journals != nullptr) {
    // A metadata conflict (Errc::already_exists) means the key is owned by a
    // different request — not retryable, so it surfaces as a permanent
    // failure rather than stomping the other rebuild's journal.
    COMT_TRY(journal,
             options_.journals->open(journal_key(request), request_metadata(request)));
    // While the journal names this image, the hub must not sweep its blobs —
    // a resume still needs to pull them.
    hub_pins.emplace(hub_, request);
  }

  obs::Span pull_span =
      obs::maybe_span(options_.tracer, "service.pull", attempt_span, "pull");
  obs::Stopwatch pull_clock;
  Status pulled =
      hub_.pull(request.name, request.tag, workspace, kWorkTag, {.parent = pull_span.id()});
  trace.pull_ms += pull_clock.elapsed_ms();
  pull_span.end();
  COMT_TRY_STATUS(pulled);

  core::RebuildOptions options;
  options.system = target.profile;
  options.system_repo = target.repo;
  options.sysenv_tag = target.sysenv_tag;
  options.adapters = target.adapters;
  options.threads = options_.rebuild_threads;
  options.compile_cache = &cache_;
  options.fault_injector = options_.faults;
  options.journal = journal.get();
  if (journal != nullptr) options.journal_metadata = request_metadata(request);
  options.tracer = options_.tracer;
  options.parent_span = attempt_span;
  options.metrics = metrics_;

  obs::Stopwatch rebuild_clock;
  auto report = core::comtainer_rebuild(workspace, kWorkTag, options);
  trace.rebuild_ms += rebuild_clock.elapsed_ms();
  if (!report.ok()) return report.error();
  trace.compile_jobs += static_cast<std::uint32_t>(report.value().jobs);
  trace.cache_hits += static_cast<std::uint32_t>(report.value().cache_hits);
  trace.cache_misses += static_cast<std::uint32_t>(report.value().cache_misses);
  trace.journal_replayed += static_cast<std::uint32_t>(report.value().journal_replayed);
  trace.journal_committed += static_cast<std::uint32_t>(report.value().journal_committed);

  std::string output_tag = request.tag + "+coMre." + request.system;
  obs::Span push_span =
      obs::maybe_span(options_.tracer, "service.push", attempt_span, "blob-push");
  obs::Stopwatch push_clock;
  Status pushed =
      hub_.push(workspace, kWorkRebuiltTag, request.name, output_tag, {.parent = push_span.id()});
  trace.push_ms += push_clock.elapsed_ms();
  push_span.end();
  COMT_TRY_STATUS(pushed);

  // The result is durable downstream; the journal has served its purpose.
  if (options_.journals != nullptr) options_.journals->remove(journal_key(request));

  output = request.name + ":" + output_tag;
  return Status::success();
}

Result<RecoveryReport> RebuildService::recover() {
  RecoveryReport report;
  // The cache hydrated at construction; report it here so one RecoveryReport
  // tells the whole restart story (journals resumed + cache warmth).
  report.cache_entries_recovered = cache_.stats().hydrated;
  // Heal the hub first: a crash mid-push can leave torn blobs behind, and a
  // resumed rebuild is about to pull from it.
  report.fsck = hub_.fsck(/*repair=*/true);
  if (options_.journals == nullptr) return report;
  for (const durable::JournalStore::Entry& entry : options_.journals->list()) {
    ++report.journals_found;
    SubmitRequest request;
    if (!parse_request_metadata(entry.metadata, request)) {
      options_.journals->remove(entry.key);
      ++report.skipped;
      continue;
    }
    auto ticket = submit(request);
    if (!ticket.ok()) {
      // The image or target system is gone — this journal can never be
      // served again.
      options_.journals->remove(entry.key);
      ++report.skipped;
      continue;
    }
    report.resubmitted.push_back(ticket.value());
  }
  return report;
}

void RebuildService::finalize_locked(Job& job, JobState state, Status result) {
  JobOutcome& outcome = *job.outcome;
  outcome.state = state;
  if (!result.ok()) outcome.error = std::make_unique<const Error>(result.error());
  // Throttled jobs never entered active_ — their key may belong to a live
  // job other tickets coalesced onto, so only erase an entry this job owns.
  if (auto it = active_.find(job.key); it != active_.end() && it->second.get() == &job) {
    active_.erase(it);
  }
  const JobTrace& trace = outcome.trace;
  counter("service.retries").add(trace.backoff_ms.size());
  counter("service.cache_hits").add(trace.cache_hits);
  counter("service.cache_misses").add(trace.cache_misses);
  metrics_->gauge("service.queue_ms").add(trace.queue_ms);
  metrics_->gauge("service.pull_ms").add(trace.pull_ms);
  metrics_->gauge("service.rebuild_ms").add(trace.rebuild_ms);
  metrics_->gauge("service.push_ms").add(trace.push_ms);
  job.span.annotate("state", to_string(state));
  job.span.end();
  done_cv_.notify_all();
}

Ticket RebuildService::issue_ticket_locked(const JobOutcome* outcome, bool coalesced) {
  tickets_.push_back(TicketRecord{outcome, coalesced});
  return tickets_.size();
}

Result<RebuildService::TicketRecord> RebuildService::ticket_locked(Ticket ticket) const {
  if (ticket == 0 || ticket > tickets_.size()) {
    return make_error(Errc::not_found, "service: unknown ticket " + std::to_string(ticket));
  }
  return tickets_[ticket - 1];
}

Result<TicketStatus> RebuildService::status_locked(Ticket ticket) const {
  COMT_TRY(TicketRecord record, ticket_locked(ticket));
  const JobOutcome& outcome = *record.outcome;
  TicketStatus out;
  out.state = outcome.state;
  if (outcome.error != nullptr) out.result = *outcome.error;
  if (outcome.output != nullptr) out.output = *outcome.output;
  out.trace = outcome.trace;
  out.trace.coalesced = record.coalesced;
  return out;
}

Result<TicketStatus> RebuildService::status(Ticket ticket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_locked(ticket);
}

Result<TicketStatus> RebuildService::wait(Ticket ticket) const {
  std::unique_lock<std::mutex> lock(mutex_);
  COMT_TRY(TicketRecord record, ticket_locked(ticket));
  done_cv_.wait(lock, [&record] { return is_terminal(record.outcome->state); });
  return status_locked(ticket);
}

void RebuildService::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void RebuildService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  start_cv_.notify_all();
}

void RebuildService::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    for (auto& [name, sys] : systems_) {
      // Fail queued jobs in queue order; their runner tasks will pop nothing.
      for (auto& [tenant, tq] : sys->tenants) {
        while (!tq.queue.empty()) {
          std::shared_ptr<Job> job = tq.queue.begin()->second;
          tq.queue.erase(tq.queue.begin());
          --sys->queued;
          --queued_count_;
          counter("service.drained").add();
          finalize_locked(*job, JobState::drained,
                          make_error(Errc::failed, "service: drained while queued"));
        }
      }
    }
  }
  start_cv_.notify_all();  // wake runners held by pause()
  for (auto& [name, sys] : systems_) sys->pool->wait_idle();
}

ServiceStats RebuildService::stats() const {
  // The lock orders this snapshot after any finalization that already
  // completed: counter updates happen while the mutex is held, so they are
  // visible to a reader that acquires it afterwards.
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats out;
  out.submitted = metrics_->counter_value("service.submitted");
  out.coalesced = metrics_->counter_value("service.coalesced");
  out.admitted = metrics_->counter_value("service.admitted");
  out.shed = metrics_->counter_value("service.shed");
  out.succeeded = metrics_->counter_value("service.succeeded");
  out.failed = metrics_->counter_value("service.failed");
  out.expired = metrics_->counter_value("service.expired");
  out.drained = metrics_->counter_value("service.drained");
  out.retries = metrics_->counter_value("service.retries");
  out.crashed = metrics_->counter_value("service.crashed");
  out.fleet_reused = metrics_->counter_value("service.fleet_reused");
  out.coordinator_errors = metrics_->counter_value("service.coordinator_errors");
  out.compile_cache_hits = metrics_->counter_value("service.cache_hits");
  out.compile_cache_misses = metrics_->counter_value("service.cache_misses");
  out.compile_cache_inserts = metrics_->counter_value("compile_cache.inserts");
  out.compile_cache_hydrated = metrics_->counter_value("compile_cache.hydrated");
  out.compile_cache_remote_hits = metrics_->counter_value("compile_cache.remote_hits");
  out.throttled = metrics_->counter_value("service.throttled");
  out.queue_ms = metrics_->gauge_value("service.queue_ms");
  out.pull_ms = metrics_->gauge_value("service.pull_ms");
  out.rebuild_ms = metrics_->gauge_value("service.rebuild_ms");
  out.push_ms = metrics_->gauge_value("service.push_ms");
  for (const auto& [tenant, state] : tenants_) {
    const std::string prefix = "service.tenant." + tenant_display(tenant) + ".";
    TenantStats slice;
    slice.submitted = metrics_->counter_value(prefix + "submitted");
    slice.admitted = metrics_->counter_value(prefix + "admitted");
    slice.shed = metrics_->counter_value(prefix + "shed");
    slice.throttled = metrics_->counter_value(prefix + "throttled");
    slice.p99_queue_wait_ms = metrics_->histogram_percentile(prefix + "queue_wait_ms", 99);
    out.tenants.emplace(tenant_display(tenant), slice);
  }
  return out;
}

std::size_t RebuildService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_count_;
}

std::size_t RebuildService::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_count_;
}

}  // namespace comt::service
