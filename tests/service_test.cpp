// RebuildService: the multi-tenant build-farm daemon. Covers the full ticket
// lifecycle (submit → queue → rebuild → push), request coalescing, bounded
// admission with priority-aware load shedding, queue-wait deadlines,
// retry/backoff against injected transient faults, permanent-failure
// surfacing, the shared cross-tenant compile cache, and graceful drain.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/store.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

namespace comt::service {
namespace {

/// Builds `app_name` on the user side and pushes its extended image to the
/// hub under "name:tag" — the state the service finds in production.
Status publish(registry::Registry& hub, const char* app_name, std::string_view name,
               std::string_view tag) {
  const workloads::AppSpec* app = workloads::find_app(app_name);
  if (app == nullptr) return make_error(Errc::not_found, "no such app in the corpus");
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  COMT_TRY(workloads::PreparedApp prepared, world.prepare(*app));
  return hub.push(world.layout(), prepared.extended_tag, name, tag);
}

/// A tenant target for the x86 cluster: profile, optimized stack, Sysenv.
TargetSystem make_target() {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  TargetSystem target;
  target.profile = &system;
  target.repo = &workloads::system_repo(system);
  EXPECT_TRUE(workloads::install_system_images(target.base_layout, system).ok());
  target.sysenv_tag = workloads::sysenv_tag(system);
  return target;
}

constexpr const char* kSys = "x86";

TEST(ServiceTest, SubmitRebuildsAndPushesResult) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  RebuildService svc(hub);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
  auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
  auto done = svc.wait(ticket.value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, JobState::succeeded) << done.value().result.error().to_string();
  EXPECT_EQ(done.value().output, std::string("hub/minimd:1.0+coMre.") + kSys);
  EXPECT_EQ(done.value().trace.attempts, 1);
  EXPECT_TRUE(done.value().trace.backoff_ms.empty());
  EXPECT_GT(done.value().trace.compile_jobs, 0u);
  EXPECT_FALSE(done.value().trace.coalesced);

  // The rebuilt image really is in the hub and is a valid, runnable image.
  EXPECT_TRUE(hub.has("hub/minimd", std::string("1.0+coMre.") + kSys));
  oci::Layout out;
  ASSERT_TRUE(hub.pull("hub/minimd", std::string("1.0+coMre.") + kSys, out, "got").ok());
  auto image = out.find_image("got");
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(out.flatten(image.value()).ok());

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(ServiceTest, RegistrySpansNestUnderTheTicketsPullAndPushSpans) {
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "chunk dedup" : "plain");
    registry::Registry hub;
    if (dedup) {
      hub.enable_chunk_dedup(
          std::make_shared<transfer::ChunkStore>(std::make_shared<store::MemStore>()));
    }
    ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
    obs::Tracer tracer;
    hub.set_observer(&tracer, nullptr);
    ServiceOptions options;
    options.tracer = &tracer;
    RebuildService svc(hub, options);
    ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
    auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
    auto done = svc.wait(ticket.value());
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().state, JobState::succeeded)
        << done.value().result.error().to_string();

    std::map<obs::SpanId, std::string> names;
    for (const obs::SpanRecord& span : tracer.snapshot()) names[span.id] = span.name;
    const std::map<std::string, std::string> want_parent = {
        {"registry.pull", "service.pull"},
        {"registry.push", "service.push"},
        {"transfer.push", "registry.push"}};
    std::map<std::string, int> nested;
    for (const obs::SpanRecord& span : tracer.snapshot()) {
      auto want = want_parent.find(span.name);
      if (want == want_parent.end()) continue;
      EXPECT_EQ(names[span.parent], want->second) << span.name;
      ++nested[span.name];
    }
    EXPECT_EQ(nested["registry.pull"], 1);
    EXPECT_EQ(nested["registry.push"], 1);
    // With chunk dedup, each blob the ticket's push adds rides the chunk
    // store's delta protocol.
    if (dedup) {
      EXPECT_GT(nested["transfer.push"], 0);
    } else {
      EXPECT_EQ(nested["transfer.push"], 0);
    }
  }
}

TEST(ServiceTest, UnknownImageAndUnknownSystemAreRejectedUpFront) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  RebuildService svc(hub);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  auto no_image = svc.submit({"hub/ghost", "1.0", kSys});
  ASSERT_FALSE(no_image.ok());
  EXPECT_EQ(no_image.error().code, Errc::not_found);

  auto no_system = svc.submit({"hub/minimd", "1.0", "andromeda"});
  ASSERT_FALSE(no_system.ok());
  EXPECT_EQ(no_system.error().code, Errc::not_found);

  auto no_ticket = svc.status(999);
  ASSERT_FALSE(no_ticket.ok());
  EXPECT_EQ(no_ticket.error().code, Errc::not_found);
}

TEST(ServiceTest, DuplicateSubmissionsCoalesceIntoOneRebuild) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  RebuildService svc(hub);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  svc.pause();  // hold starts so all duplicates land on the queued job
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  EXPECT_EQ(svc.queue_depth(), 1u);  // one job serves all four tickets
  svc.resume();

  int coalesced = 0;
  std::string output;
  for (Ticket ticket : tickets) {
    auto done = svc.wait(ticket);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().state, JobState::succeeded);
    if (output.empty()) output = done.value().output;
    EXPECT_EQ(done.value().output, output);  // everyone gets the same result
    if (done.value().trace.coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, 3);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.succeeded, 1u);  // one rebuild ran, not four
}

TEST(ServiceTest, ResubmitAfterCompletionIsANewJobServedFromCompileCache) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  RebuildService svc(hub);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  auto first = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(first.ok());
  auto first_done = svc.wait(first.value());
  ASSERT_EQ(first_done.value().state, JobState::succeeded);
  EXPECT_GT(first_done.value().trace.cache_misses, 0u);

  auto second = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(second.ok());
  auto second_done = svc.wait(second.value());
  ASSERT_EQ(second_done.value().state, JobState::succeeded);
  EXPECT_FALSE(second_done.value().trace.coalesced);  // first already finished
  // The warm shared cache replays every compile job.
  EXPECT_GT(second_done.value().trace.cache_hits, 0u);
  EXPECT_EQ(second_done.value().trace.cache_misses, 0u);
}

TEST(ServiceTest, CompileCacheIsSharedAcrossTenantSystems) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  RebuildService svc(hub);
  // Two tenant fingerprints backed by identical hardware: a second cluster of
  // the same model. Their rebuilds share the content-addressed cache.
  ASSERT_TRUE(svc.add_system("siteA", make_target()).ok());
  ASSERT_TRUE(svc.add_system("siteB", make_target()).ok());

  auto warm = svc.submit({"hub/minimd", "1.0", "siteA"});
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(svc.wait(warm.value()).value().state, JobState::succeeded);

  auto reuse = svc.submit({"hub/minimd", "1.0", "siteB"});
  ASSERT_TRUE(reuse.ok());
  auto done = svc.wait(reuse.value());
  ASSERT_EQ(done.value().state, JobState::succeeded);
  EXPECT_FALSE(done.value().trace.coalesced);  // different system: its own job
  EXPECT_GT(done.value().trace.cache_hits, 0u);
  EXPECT_EQ(done.value().trace.cache_misses, 0u);
  // Each system got its own output reference.
  EXPECT_TRUE(hub.has("hub/minimd", "1.0+coMre.siteA"));
  EXPECT_TRUE(hub.has("hub/minimd", "1.0+coMre.siteB"));
}

TEST(ServiceTest, FullQueueShedsLowestPriorityForHigherArrival) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  ASSERT_TRUE(publish(hub, "comd", "hub/comd", "1.0").ok());
  ASSERT_TRUE(publish(hub, "hpccg", "hub/hpccg", "1.0").ok());

  ServiceOptions options;
  options.queue_capacity = 2;
  options.workers_per_system = 1;
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
  svc.pause();  // keep everything queued while we probe admission

  auto batch_old = svc.submit({"hub/minimd", "1.0", kSys, Priority::batch});
  auto batch_new = svc.submit({"hub/comd", "1.0", kSys, Priority::batch});
  ASSERT_TRUE(batch_old.ok());
  ASSERT_TRUE(batch_new.ok());
  EXPECT_EQ(svc.queue_depth(), 2u);

  // Queue full: an interactive arrival evicts the newest batch job…
  auto urgent = svc.submit({"hub/hpccg", "1.0", kSys, Priority::interactive});
  ASSERT_TRUE(urgent.ok());
  EXPECT_EQ(svc.queue_depth(), 2u);
  auto evicted = svc.status(batch_new.value());
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.value().state, JobState::rejected);
  EXPECT_NE(evicted.value().result.error().message.find("load shed"), std::string::npos);

  // …while an equal-priority arrival is itself shed.
  auto turned_away = svc.submit({"hub/comd", "1.0", kSys, Priority::batch});
  ASSERT_TRUE(turned_away.ok());
  auto rejected = svc.status(turned_away.value());
  EXPECT_EQ(rejected.value().state, JobState::rejected);
  EXPECT_NE(rejected.value().result.error().message.find("queue full"), std::string::npos);

  svc.resume();
  EXPECT_EQ(svc.wait(batch_old.value()).value().state, JobState::succeeded);
  EXPECT_EQ(svc.wait(urgent.value()).value().state, JobState::succeeded);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.admitted, 3u);
}

TEST(ServiceTest, HigherPriorityStartsFirst) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  ASSERT_TRUE(publish(hub, "comd", "hub/comd", "1.0").ok());

  ServiceOptions options;
  options.workers_per_system = 1;
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
  svc.pause();
  auto batch = svc.submit({"hub/minimd", "1.0", kSys, Priority::batch});
  auto urgent = svc.submit({"hub/comd", "1.0", kSys, Priority::interactive});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(urgent.ok());
  svc.resume();

  // The single worker must pick the interactive job although it arrived
  // second; by the time the batch job finishes, the urgent one has too.
  auto batch_done = svc.wait(batch.value());
  ASSERT_EQ(batch_done.value().state, JobState::succeeded);
  auto urgent_done = svc.status(urgent.value());
  ASSERT_TRUE(urgent_done.ok());
  EXPECT_EQ(urgent_done.value().state, JobState::succeeded);
  EXPECT_LE(urgent_done.value().trace.queue_ms, batch_done.value().trace.queue_ms);
}

TEST(ServiceTest, QueueDeadlineExpiresBeforeTheJobStarts) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  RebuildService svc(hub);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  svc.pause();
  SubmitRequest request{"hub/minimd", "1.0", kSys};
  request.deadline_ms = 5;
  auto ticket = svc.submit(request);
  ASSERT_TRUE(ticket.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  svc.resume();

  auto done = svc.wait(ticket.value());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().state, JobState::expired);
  EXPECT_NE(done.value().result.error().message.find("deadline"), std::string::npos);
  EXPECT_EQ(svc.stats().expired, 1u);
  // Nothing was pushed for the expired job.
  EXPECT_FALSE(hub.has("hub/minimd", std::string("1.0+coMre.") + kSys));
}

TEST(ServiceRetryTest, TransientPullFaultsRecoverWithMonotonicBackoff) {
  support::FaultInjector faults;
  registry::Registry hub;
  hub.set_fault_injector(&faults);
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.max_attempts = 4;
  options.sleep_on_backoff = false;  // deterministic schedule, no clock
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  // "Fail the first 2 pulls": attempts 1 and 2 die at the pull, 3 succeeds.
  faults.fail_next(registry::kPullFaultSite, 2);
  auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(ticket.ok());
  auto done = svc.wait(ticket.value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, JobState::succeeded) << done.value().result.error().to_string();
  EXPECT_EQ(done.value().trace.attempts, 3);
  ASSERT_EQ(done.value().trace.backoff_ms.size(), 2u);
  EXPECT_GT(done.value().trace.backoff_ms[0], 0.0);
  EXPECT_GE(done.value().trace.backoff_ms[1], done.value().trace.backoff_ms[0]);
  EXPECT_EQ(faults.injected(registry::kPullFaultSite), 2u);
  EXPECT_EQ(svc.stats().retries, 2u);
  EXPECT_TRUE(hub.has("hub/minimd", std::string("1.0+coMre.") + kSys));
}

TEST(ServiceRetryTest, SpuriousCompileFaultRecoversOnRetry) {
  support::FaultInjector faults;
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.sleep_on_backoff = false;
  options.faults = &faults;  // wired into every rebuild's compile jobs
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  faults.fail_next(core::kCompileFaultSite, 1);
  auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(ticket.ok());
  auto done = svc.wait(ticket.value());
  ASSERT_EQ(done.value().state, JobState::succeeded) << done.value().result.error().to_string();
  EXPECT_EQ(done.value().trace.attempts, 2);
  EXPECT_EQ(done.value().trace.backoff_ms.size(), 1u);
  EXPECT_EQ(faults.injected(core::kCompileFaultSite), 1u);
}

TEST(ServiceRetryTest, PersistentFaultsSurfaceAsPermanentFailureAfterMaxAttempts) {
  support::FaultInjector faults;
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.max_attempts = 3;
  options.sleep_on_backoff = false;
  options.faults = &faults;
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  // Every compile job fails, on every attempt.
  faults.fail_every(core::kCompileFaultSite, 1);
  auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(ticket.ok());
  auto done = svc.wait(ticket.value());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().state, JobState::failed);
  EXPECT_EQ(done.value().trace.attempts, 3);
  EXPECT_EQ(done.value().trace.backoff_ms.size(), 2u);
  EXPECT_GE(done.value().trace.backoff_ms[1], done.value().trace.backoff_ms[0]);
  EXPECT_NE(done.value().result.error().message.find("after 3 attempt"), std::string::npos);
  EXPECT_NE(done.value().result.error().message.find("injected fault"), std::string::npos);
  EXPECT_EQ(svc.stats().failed, 1u);
  EXPECT_FALSE(hub.has("hub/minimd", std::string("1.0+coMre.") + kSys));
}

TEST(ServiceRetryTest, EveryThirdCompileJobFaultExhaustsRetries) {
  support::FaultInjector faults;
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "lammps", "hub/lammps", "1.0").ok());

  // Learn the app's compile-job count with a clean service first.
  std::size_t compile_jobs = 0;
  {
    RebuildService probe(hub);
    ASSERT_TRUE(probe.add_system(kSys, make_target()).ok());
    auto ticket = probe.submit({"hub/lammps", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    auto done = probe.wait(ticket.value());
    ASSERT_EQ(done.value().state, JobState::succeeded);
    compile_jobs = done.value().trace.compile_jobs;
  }
  // With >= 3 jobs per attempt, a fail-every-3rd schedule guarantees at least
  // one fault on every attempt — the failure must go permanent.
  ASSERT_GE(compile_jobs, 3u);

  ServiceOptions options;
  options.max_attempts = 2;
  options.sleep_on_backoff = false;
  options.faults = &faults;
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
  faults.fail_every(core::kCompileFaultSite, 3);
  auto ticket = svc.submit({"hub/lammps", "1.0", kSys});
  ASSERT_TRUE(ticket.ok());
  auto done = svc.wait(ticket.value());
  EXPECT_EQ(done.value().state, JobState::failed);
  EXPECT_EQ(done.value().trace.attempts, 2);
  EXPECT_GE(faults.injected(core::kCompileFaultSite), 2u);  // >= one per attempt
}

TEST(ServiceDrainTest, DrainFailsQueuedJobsAndCompletesInFlightOnes) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  ASSERT_TRUE(publish(hub, "comd", "hub/comd", "1.0").ok());

  ServiceOptions options;
  options.workers_per_system = 1;
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  svc.pause();
  auto first = svc.submit({"hub/minimd", "1.0", kSys});
  auto second = svc.submit({"hub/comd", "1.0", kSys});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  svc.resume();
  // Wait until the single worker has the first job in flight…
  while (svc.status(first.value()).value().state == JobState::queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc.drain();  // …then drain: in-flight completes, queued fails distinctly.

  auto first_done = svc.status(first.value());
  ASSERT_TRUE(first_done.ok());
  EXPECT_EQ(first_done.value().state, JobState::succeeded);
  EXPECT_TRUE(hub.has("hub/minimd", std::string("1.0+coMre.") + kSys));

  auto second_done = svc.status(second.value());
  ASSERT_TRUE(second_done.ok());
  ASSERT_TRUE(is_terminal(second_done.value().state));
  if (second_done.value().state == JobState::drained) {
    EXPECT_NE(second_done.value().result.error().message.find("drained"), std::string::npos);
    // A drained job never half-pushed its result.
    EXPECT_FALSE(hub.has("hub/comd", std::string("1.0+coMre.") + kSys));
  } else {
    // The first job finished before drain took the lock; the second ran too.
    EXPECT_EQ(second_done.value().state, JobState::succeeded);
  }

  // A draining service turns new work away.
  auto late = svc.submit({"hub/minimd", "1.0", kSys});
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.error().message.find("draining"), std::string::npos);
}

TEST(ServiceDrainTest, DrainWhilePausedFailsEverythingQueuedDeterministically) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  ASSERT_TRUE(publish(hub, "comd", "hub/comd", "1.0").ok());

  RebuildService svc(hub);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
  svc.pause();
  auto a = svc.submit({"hub/minimd", "1.0", kSys});
  auto b = svc.submit({"hub/comd", "1.0", kSys});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  svc.drain();  // never resumed: both jobs must drain, none may run

  EXPECT_EQ(svc.status(a.value()).value().state, JobState::drained);
  EXPECT_EQ(svc.status(b.value()).value().state, JobState::drained);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.drained, 2u);
  EXPECT_EQ(stats.succeeded, 0u);
  EXPECT_EQ(hub.stats().pulled_bytes, 0u);  // nothing ever started
}

TEST(ServiceRetryTest, RetryBackoffPastTheDeadlineExpiresInsteadOfRetrying) {
  support::FaultInjector faults;
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.max_attempts = 5;
  options.sleep_on_backoff = false;  // the skipped backoff is never slept anyway
  options.backoff_base_ms = 60000;  // any retry would land way past the deadline
  options.backoff_max_ms = 120000;  // keep the cap from shrinking it back under
  options.faults = &faults;
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  // Every compile job fails: without a deadline this job would burn through
  // all 5 attempts. The deadline must cut the retry loop short instead.
  faults.fail_every(core::kCompileFaultSite, 1);
  SubmitRequest request{"hub/minimd", "1.0", kSys};
  request.deadline_ms = 2000;  // comfortably survives pickup + one attempt
  auto ticket = svc.submit(request);
  ASSERT_TRUE(ticket.ok());
  auto done = svc.wait(ticket.value());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().state, JobState::expired);
  EXPECT_EQ(done.value().trace.attempts, 1);  // ran once, never retried
  EXPECT_TRUE(done.value().trace.backoff_ms.empty());  // the delay was not taken
  EXPECT_NE(done.value().result.error().message.find("deadline"), std::string::npos);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_FALSE(hub.has("hub/minimd", std::string("1.0+coMre.") + kSys));
}

TEST(ServiceTenantTest, RateQuotaThrottlesOnlyTheOverBudgetTenant) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.tenants["hot"].quota_burst = 3;  // hard lifetime cap: rate 0
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  std::vector<Ticket> hot;
  for (int i = 0; i < 5; ++i) {
    SubmitRequest request{"hub/minimd", "1.0", kSys};
    request.tenant = "hot";
    auto ticket = svc.submit(request);
    ASSERT_TRUE(ticket.ok());
    hot.push_back(ticket.value());
  }
  // First three spent the bucket (whether they coalesced or not); the rest
  // are shed immediately as throttled.
  for (int i = 3; i < 5; ++i) {
    auto shed = svc.status(hot[i]);
    ASSERT_TRUE(shed.ok());
    EXPECT_EQ(shed.value().state, JobState::throttled);
    EXPECT_NE(shed.value().result.error().message.find("quota"), std::string::npos);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.wait(hot[i]).value().state, JobState::succeeded);
  }

  // An unlisted tenant has no quota and sails through.
  SubmitRequest quiet{"hub/minimd", "1.0", kSys};
  quiet.tenant = "quiet";
  auto ok = svc.submit(quiet);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(svc.wait(ok.value()).value().state, JobState::succeeded);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.throttled, 2u);
  ASSERT_EQ(stats.tenants.count("hot"), 1u);
  EXPECT_EQ(stats.tenants.at("hot").submitted, 5u);
  EXPECT_EQ(stats.tenants.at("hot").throttled, 2u);
  EXPECT_EQ(stats.tenants.at("quiet").throttled, 0u);
  EXPECT_EQ(stats.tenants.at("quiet").submitted, 1u);
}

TEST(ServiceTenantTest, TokenBucketRefillsAtTheConfiguredRate) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.tenants["metered"].quota_burst = 1;
  options.tenants["metered"].quota_rate = 100;  // one token per 10 ms
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  SubmitRequest request{"hub/minimd", "1.0", kSys};
  request.tenant = "metered";
  auto first = svc.submit(request);
  ASSERT_TRUE(first.ok());
  EXPECT_NE(svc.status(first.value()).value().state, JobState::throttled);
  auto second = svc.submit(request);  // bucket empty
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(svc.status(second.value()).value().state, JobState::throttled);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // >= 1 token back
  auto third = svc.submit(request);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(svc.status(third.value()).value().state, JobState::throttled);
}

TEST(ServiceTenantTest, WeightedFairDrainKeepsQuietTenantUnstarved) {
  registry::Registry hub;
  // Eight distinct images: coalescing must not merge any of these jobs.
  const std::vector<std::pair<std::string, std::string>> hot_apps = {
      {"hpl", "hub/hpl"},         {"hpcg", "hub/hpcg"},
      {"lulesh", "hub/lulesh"},   {"comd", "hub/comd"},
      {"hpccg", "hub/hpccg"},     {"miniaero", "hub/miniaero"}};
  for (const auto& [app, name] : hot_apps) {
    ASSERT_TRUE(publish(hub, app.c_str(), name, "1.0").ok());
  }
  ASSERT_TRUE(publish(hub, "minife", "hub/minife", "1.0").ok());
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());

  ServiceOptions options;
  options.workers_per_system = 1;  // a strict serial drain exposes the order
  RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  // A hot tenant floods six *interactive* jobs; a quiet tenant has two
  // *normal* ones. Under the old strict-priority drain the quiet tenant would
  // be served dead last; DRR must interleave the two tenants 1:1.
  svc.pause();
  std::vector<Ticket> hot_tickets, quiet_tickets;
  for (const auto& [app, name] : hot_apps) {
    SubmitRequest request{name, "1.0", kSys, Priority::interactive};
    request.tenant = "hot";
    auto ticket = svc.submit(request);
    ASSERT_TRUE(ticket.ok());
    hot_tickets.push_back(ticket.value());
  }
  for (const char* name : {"hub/minife", "hub/minimd"}) {
    SubmitRequest request{name, "1.0", kSys, Priority::normal};
    request.tenant = "quiet";
    auto ticket = svc.submit(request);
    ASSERT_TRUE(ticket.ok());
    quiet_tickets.push_back(ticket.value());
  }
  ASSERT_EQ(svc.queue_depth(), 8u);
  svc.resume();

  std::vector<double> hot_waits, quiet_waits;
  for (Ticket ticket : hot_tickets) {
    auto done = svc.wait(ticket);
    ASSERT_EQ(done.value().state, JobState::succeeded);
    hot_waits.push_back(done.value().trace.queue_ms);
  }
  for (Ticket ticket : quiet_tickets) {
    auto done = svc.wait(ticket);
    ASSERT_EQ(done.value().state, JobState::succeeded);
    quiet_waits.push_back(done.value().trace.queue_ms);
  }

  // Pickup order == queue_ms order on one worker. In a 1:1 interleave at most
  // two hot jobs run before the quiet tenant's second job; strict priority
  // would put all six first.
  for (double quiet_wait : quiet_waits) {
    int hot_before = 0;
    for (double hot_wait : hot_waits) hot_before += hot_wait < quiet_wait ? 1 : 0;
    EXPECT_LE(hot_before, 2) << "quiet tenant starved behind the hot flood";
  }

  ServiceStats stats = svc.stats();
  ASSERT_EQ(stats.tenants.count("quiet"), 1u);
  EXPECT_EQ(stats.tenants.at("quiet").admitted, 2u);
  EXPECT_GT(stats.tenants.at("quiet").p99_queue_wait_ms, 0.0);
}

TEST(ServiceTest, FingerprintIsStableAndSystemSpecific) {
  std::string x86 = fingerprint(sysmodel::SystemProfile::x86_cluster());
  EXPECT_EQ(x86, fingerprint(sysmodel::SystemProfile::x86_cluster()));
  EXPECT_NE(x86, fingerprint(sysmodel::SystemProfile::aarch64_cluster()));
  EXPECT_NE(x86.find(sysmodel::SystemProfile::x86_cluster().arch), std::string::npos);
}

TEST(ServiceTest, AddSystemValidatesItsTarget) {
  registry::Registry hub;
  RebuildService svc(hub);
  TargetSystem missing_profile;
  EXPECT_EQ(svc.add_system("x", missing_profile).error().code, Errc::invalid_argument);

  TargetSystem no_sysenv = make_target();
  no_sysenv.sysenv_tag = "ghost";
  EXPECT_FALSE(svc.add_system("x", no_sysenv).ok());

  // A Sysenv whose bytes no longer match their digest is refused up front.
  TargetSystem damaged = make_target();
  auto sysenv = damaged.base_layout.find_image(damaged.sysenv_tag);
  ASSERT_TRUE(sysenv.ok());
  const oci::Digest layer = sysenv.value().manifest.layers.front().digest;
  std::string bytes = damaged.base_layout.get_blob(layer).value();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  damaged.base_layout.set_blob_bytes(layer, bytes);
  auto refused = svc.add_system("x", damaged);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, Errc::corrupt);

  ASSERT_TRUE(svc.add_system("x", make_target()).ok());
  EXPECT_EQ(svc.add_system("x", make_target()).error().code, Errc::already_exists);
}

}  // namespace
}  // namespace comt::service
