// Crash-safe resumable rebuilds, end to end: an exhaustive sweep that kills a
// journaled rebuild at every crash site on every call and proves the resume is
// bit-identical without re-running committed jobs; torn-write injection on
// journal appends and blob puts; journal/inputs mismatch rejection; and the
// service-level story — a crashed job recovered by a fresh service incarnation
// over the same hub and journal store.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "durable/journal.hpp"
#include "oci/fsck.hpp"
#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/disk.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

namespace comt {
namespace {

/// One prepared world for the whole binary: minimd built and extended on the
/// x86 cluster. Every rebuild below works on a private copy of the layout, so
/// sharing the (comparatively expensive) user-side build is safe.
struct World {
  workloads::Evaluation eval{sysmodel::SystemProfile::x86_cluster()};
  std::string extended_tag;
};

World& shared_world() {
  static World* world = [] {
    auto* w = new World;
    const workloads::AppSpec* app = workloads::find_app("minimd");
    COMT_ASSERT(app != nullptr, "minimd missing from the corpus");
    auto prepared = w->eval.prepare(*app);
    COMT_ASSERT(prepared.ok(), "prepare failed");
    w->extended_tag = prepared.value().extended_tag;
    return w;
  }();
  return *world;
}

core::RebuildOptions base_options() {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  core::RebuildOptions options;
  options.system = &system;
  options.system_repo = &workloads::system_repo(system);
  options.sysenv_tag = workloads::sysenv_tag(system);
  return options;
}

/// Manifest digest of an uninterrupted, unjournaled rebuild — the reference
/// every crashed-and-resumed run must reproduce bit for bit.
std::string reference_digest() {
  static const std::string digest = [] {
    oci::Layout layout = shared_world().eval.layout();
    auto report = core::comtainer_rebuild(layout, shared_world().extended_tag,
                                          base_options());
    COMT_ASSERT(report.ok(), "reference rebuild failed");
    return report.value().image.manifest_digest.value;
  }();
  return digest;
}

TEST(CrashResumeTest, JournalingIsTransparentOnACleanRun) {
  oci::Layout layout = shared_world().eval.layout();
  durable::Journal journal;
  core::RebuildOptions options = base_options();
  options.journal = &journal;

  auto report = core::comtainer_rebuild(layout, shared_world().extended_tag, options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().image.manifest_digest.value, reference_digest());
  EXPECT_FALSE(report.value().resumed);
  EXPECT_EQ(report.value().journal_replayed, 0u);
  EXPECT_EQ(report.value().journal_committed, report.value().jobs);
  EXPECT_FALSE(journal.empty());

  auto replay = journal.replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay.value().begin.has_value());
  EXPECT_EQ(replay.value().begin->planned_jobs, report.value().jobs);
  EXPECT_EQ(replay.value().commits.size(), report.value().jobs);
}

TEST(CrashResumeTest, ReRunningACompletedJournalReplaysEveryJob) {
  oci::Layout layout = shared_world().eval.layout();
  durable::Journal journal;
  core::RebuildOptions options = base_options();
  options.journal = &journal;

  auto first = core::comtainer_rebuild(layout, shared_world().extended_tag, options);
  ASSERT_TRUE(first.ok());
  auto second = core::comtainer_rebuild(layout, shared_world().extended_tag, options);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().image.manifest_digest.value, reference_digest());
  EXPECT_TRUE(second.value().resumed);
  EXPECT_EQ(second.value().journal_replayed, first.value().jobs);
  EXPECT_EQ(second.value().cache_misses, 0u);  // nothing re-executed
}

// The tentpole acceptance test: crash at every site, at every call of that
// site, resume, and require (a) a bit-identical image and (b) that jobs whose
// commit record survived are replayed, never re-executed. With threads == 1
// the scheduler runs jobs inline in topological order, so the expected replay
// count at each (site, call) is exact arithmetic:
//   job_start/job_committed fire inside job k before its commit -> k-1 replays
//   journal_committed fires after job k's commit record          -> k replays
//   finish fires once, after all N commits                       -> N replays
// A second pass sweeps the concurrent wave path at threads == 4. There
// job_committed and journal_committed fire from the wave-commit hook, once
// per job around its commit record, and finish fires after the schedule, all
// on the scheduler's calling thread, so the same arithmetic holds. job_start
// fires inside a job body on a pool worker, where a thrown CrashInjected
// terminates the process; that is why crash injection requires
// rebuild_threads == 1 in the service, and why this pass leaves it out.
TEST(CrashResumeTest, ExhaustiveCrashSweepResumesBitIdentical) {
  const std::string tag = shared_world().extended_tag;
  const std::string want = reference_digest();

  // Job count from one clean journaled run.
  std::size_t jobs = 0;
  {
    oci::Layout layout = shared_world().eval.layout();
    durable::Journal journal;
    core::RebuildOptions options = base_options();
    options.journal = &journal;
    auto clean = core::comtainer_rebuild(layout, tag, options);
    ASSERT_TRUE(clean.ok());
    jobs = clean.value().jobs;
  }
  ASSERT_GT(jobs, 1u);

  struct Pass {
    std::size_t threads;
    std::vector<std::string_view> sites;
  };
  const Pass passes[] = {
      {1, {std::begin(core::kRebuildCrashSites), std::end(core::kRebuildCrashSites)}},
      {4, {core::kCrashJobCommitted, core::kCrashJournalCommitted, core::kCrashFinish}},
  };
  for (const Pass& pass : passes) {
    for (std::string_view site : pass.sites) {
      const std::uint64_t site_calls = site == core::kCrashFinish ? 1 : jobs;
      for (std::uint64_t call = 1; call <= site_calls; ++call) {
        SCOPED_TRACE("threads " + std::to_string(pass.threads) + ": " + std::string(site) +
                     " call " + std::to_string(call));
        oci::Layout layout = shared_world().eval.layout();
        durable::Journal journal;
        support::FaultInjector faults;
        faults.crash_at(site, call);

        core::RebuildOptions options = base_options();
        options.threads = pass.threads;
        options.journal = &journal;
        options.fault_injector = &faults;

        bool crashed = false;
        try {
          auto doomed = core::comtainer_rebuild(layout, tag, options);
          ADD_FAILURE() << "rebuild survived an armed crash site";
        } catch (const support::CrashInjected& crash) {
          crashed = true;
          EXPECT_EQ(crash.site, site);
          EXPECT_EQ(crash.call, call);
        }
        ASSERT_TRUE(crashed);

        faults.clear_all();
        auto resumed = core::comtainer_rebuild(layout, tag, options);
        ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
        EXPECT_EQ(resumed.value().image.manifest_digest.value, want);
        EXPECT_TRUE(resumed.value().resumed);

        std::size_t want_replayed = 0;
        if (site == core::kCrashJobStart || site == core::kCrashJobCommitted) {
          want_replayed = call - 1;
        } else if (site == core::kCrashJournalCommitted) {
          want_replayed = call;
        } else {
          want_replayed = jobs;  // kCrashFinish: everything was committed
        }
        EXPECT_EQ(resumed.value().journal_replayed, want_replayed);
        // Committed jobs never touch the toolchain again; with no compile
        // cache every non-replayed job counts as a miss.
        EXPECT_EQ(resumed.value().cache_misses, jobs - want_replayed);
        EXPECT_EQ(resumed.value().journal_committed, jobs - want_replayed);
      }
    }
  }
}

// Tear the journal file itself mid-append at every record boundary: the torn
// tail must be detected, truncated, and the interrupted job re-executed.
TEST(CrashResumeTest, TornJournalAppendIsTruncatedAndReExecuted) {
  const std::string tag = shared_world().extended_tag;
  const std::string want = reference_digest();

  std::size_t jobs = 0;
  {
    oci::Layout layout = shared_world().eval.layout();
    durable::Journal journal;
    core::RebuildOptions options = base_options();
    options.journal = &journal;
    auto clean = core::comtainer_rebuild(layout, tag, options);
    ASSERT_TRUE(clean.ok());
    jobs = clean.value().jobs;
  }

  // Appends: call 1 is the begin record, call 1+k is job k's commit record.
  for (std::uint64_t call = 1; call <= jobs + 1; ++call) {
    SCOPED_TRACE("torn append call " + std::to_string(call));
    oci::Layout layout = shared_world().eval.layout();
    durable::Journal journal;
    support::FaultInjector faults;
    journal.set_fault_injector(&faults);
    faults.tear_at(durable::kJournalAppendSite, call, 0.5);

    core::RebuildOptions options = base_options();
    options.journal = &journal;
    options.fault_injector = &faults;

    bool crashed = false;
    try {
      auto doomed = core::comtainer_rebuild(layout, tag, options);
      ADD_FAILURE() << "rebuild survived a torn journal append";
    } catch (const support::CrashInjected& crash) {
      crashed = true;
      EXPECT_EQ(crash.site, durable::kJournalAppendSite);
    }
    ASSERT_TRUE(crashed);

    faults.clear_all();
    auto resumed = core::comtainer_rebuild(layout, tag, options);
    ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
    EXPECT_EQ(resumed.value().image.manifest_digest.value, want);
    EXPECT_GT(resumed.value().journal_truncated_bytes, 0u);
    if (call == 1) {
      // The begin record itself was torn away: a fresh run, not a resume.
      EXPECT_FALSE(resumed.value().resumed);
      EXPECT_EQ(resumed.value().journal_replayed, 0u);
    } else {
      EXPECT_TRUE(resumed.value().resumed);
      // call-2 commits landed intact before the torn one.
      EXPECT_EQ(resumed.value().journal_replayed, call - 2);
    }
  }
}

// Tear a blob write during final image assembly: the layout is left holding a
// truncated blob under the true content's digest. The resume replays every
// job from the journal and re-putting the true bytes heals the blob.
TEST(CrashResumeTest, TornBlobPutDuringAssemblyHealsOnResume) {
  const std::string tag = shared_world().extended_tag;
  oci::Layout layout = shared_world().eval.layout();
  durable::Journal journal;
  support::FaultInjector faults;
  layout.set_fault_injector(&faults);
  faults.tear_next(oci::kBlobPutSite, 0.5);

  core::RebuildOptions options = base_options();
  options.journal = &journal;
  options.fault_injector = &faults;

  bool crashed = false;
  try {
    auto doomed = core::comtainer_rebuild(layout, tag, options);
    ADD_FAILURE() << "rebuild survived a torn blob write";
  } catch (const support::CrashInjected& crash) {
    crashed = true;
    EXPECT_EQ(crash.site, oci::kBlobPutSite);
  }
  ASSERT_TRUE(crashed);
  // The crash left damage fsck can see...
  EXPECT_FALSE(oci::fsck(layout).clean());

  faults.clear_all();
  auto resumed = core::comtainer_rebuild(layout, tag, options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_EQ(resumed.value().image.manifest_digest.value, reference_digest());
  EXPECT_TRUE(resumed.value().resumed);
  EXPECT_EQ(resumed.value().cache_misses, 0u);  // all jobs replayed
  // ...and the resume healed it by rewriting the true bytes.
  EXPECT_TRUE(oci::fsck(layout).clean());
}

TEST(CrashResumeTest, JournalForDifferentInputsIsRejected) {
  durable::Journal journal;
  durable::BeginRecord begin;
  begin.inputs_digest = "sha256:not-the-rebuild-you-are-looking-for";
  begin.system = "x86_cluster";
  begin.planned_jobs = 7;
  ASSERT_TRUE(journal.append_begin(begin).ok());

  oci::Layout layout = shared_world().eval.layout();
  core::RebuildOptions options = base_options();
  options.journal = &journal;
  auto report = core::comtainer_rebuild(layout, shared_world().extended_tag, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::invalid_argument);
}

// ---------------------------------------------------------------------------
// Service-level crash -> restart -> recover().

Status publish(registry::Registry& hub, const char* app_name, std::string_view name,
               std::string_view tag) {
  const workloads::AppSpec* app = workloads::find_app(app_name);
  if (app == nullptr) return make_error(Errc::not_found, "no such app in the corpus");
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  COMT_TRY(workloads::PreparedApp prepared, world.prepare(*app));
  return hub.push(world.layout(), prepared.extended_tag, name, tag);
}

service::TargetSystem make_target() {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  service::TargetSystem target;
  target.profile = &system;
  target.repo = &workloads::system_repo(system);
  EXPECT_TRUE(workloads::install_system_images(target.base_layout, system).ok());
  target.sysenv_tag = workloads::sysenv_tag(system);
  return target;
}

constexpr const char* kSys = "x86";
const std::string kOutTag = std::string("1.0+coMre.") + kSys;

TEST(ServiceCrashRecoveryTest, CrashedJobIsRecoveredBitIdenticallyByNextIncarnation) {
  // Reference: an uninterrupted service run on its own hub.
  std::string want;
  {
    registry::Registry hub;
    ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
    service::RebuildService svc(hub);
    ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
    auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    auto done = svc.wait(ticket.value());
    ASSERT_EQ(done.value().state, service::JobState::succeeded);
    auto digest = hub.resolve("hub/minimd", kOutTag);
    ASSERT_TRUE(digest.ok());
    want = digest.value().value;
  }

  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  durable::JournalStore journals;
  support::FaultInjector faults;

  service::ServiceOptions options;
  options.journals = &journals;
  options.rebuild_threads = 1;  // a crash must unwind the submitting thread
  options.faults = &faults;

  // Incarnation one: dies at an injected crash site mid-rebuild. The journal
  // (with the commits made so far) outlives the service in the store.
  {
    service::RebuildService svc(hub, options);
    ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
    faults.crash_at(core::kCrashJobCommitted, 2);
    auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    auto done = svc.wait(ticket.value());
    ASSERT_EQ(done.value().state, service::JobState::failed);
    EXPECT_TRUE(done.value().trace.crashed);
    EXPECT_EQ(done.value().trace.attempts, 1);  // a crash is not retried
    EXPECT_EQ(svc.stats().crashed, 1u);
    EXPECT_FALSE(hub.has("hub/minimd", kOutTag));
    EXPECT_EQ(journals.size(), 1u);
  }
  faults.clear_all();

  // Incarnation two: same hub, same journal store, fresh process state.
  service::ServiceOptions clean_options;
  clean_options.journals = &journals;
  clean_options.rebuild_threads = 1;
  service::RebuildService next(hub, clean_options);
  ASSERT_TRUE(next.add_system(kSys, make_target()).ok());

  auto recovery = next.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().journals_found, 1u);
  EXPECT_EQ(recovery.value().skipped, 0u);
  ASSERT_EQ(recovery.value().resubmitted.size(), 1u);
  EXPECT_EQ(recovery.value().fsck.remaining, 0u);

  auto done = next.wait(recovery.value().resubmitted[0]);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, service::JobState::succeeded)
      << done.value().result.error().to_string();
  // The jobs committed before the crash replayed instead of re-executing.
  EXPECT_GT(done.value().trace.journal_replayed, 0u);

  auto digest = hub.resolve("hub/minimd", kOutTag);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value().value, want);
  // Success retires the journal; nothing is left to recover.
  EXPECT_EQ(journals.size(), 0u);
  EXPECT_EQ(next.recover().value().journals_found, 0u);
}

// The storage-layer acceptance test: both the journal store and the compile
// cache persist into ONE DiskStore directory. The service process dies
// mid-rebuild, a brand-new process (fresh DiskStore, JournalStore, and
// RebuildService objects over the same directory) hydrates both, resumes the
// journaled rebuild, serves at least one compile-cache hit from the previous
// incarnation's work, and produces a bit-identical image.
TEST(ServiceCrashRecoveryTest, RestartOverSameDiskStoreDirResumesWithWarmCache) {
  namespace stdfs = std::filesystem;
  const stdfs::path dir =
      stdfs::temp_directory_path() / "comt-restart-warm-cache";
  stdfs::remove_all(dir);

  // Reference digest from an uninterrupted run on its own hub.
  std::string want;
  {
    registry::Registry hub;
    ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
    service::RebuildService svc(hub);
    ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
    auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    ASSERT_EQ(svc.wait(ticket.value()).value().state,
              service::JobState::succeeded);
    want = hub.resolve("hub/minimd", kOutTag).value().value;
  }

  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  support::FaultInjector faults;

  // Incarnation one: crashes inside job 2 after its cache entry was written
  // through but before its commit record landed. The directory is left
  // holding job 1's journaled commit plus cache entries for jobs 1 and 2.
  {
    auto disk = std::make_shared<store::DiskStore>(dir.string());
    durable::JournalStore journals(disk);
    service::ServiceOptions options;
    options.journals = &journals;
    options.store = disk;
    options.rebuild_threads = 1;
    options.faults = &faults;
    service::RebuildService svc(hub, options);
    ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());
    faults.crash_at(core::kCrashJobCommitted, 2);
    auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    auto done = svc.wait(ticket.value());
    ASSERT_EQ(done.value().state, service::JobState::failed);
    EXPECT_TRUE(done.value().trace.crashed);
    EXPECT_FALSE(hub.has("hub/minimd", kOutTag));
    EXPECT_EQ(journals.size(), 1u);
  }
  faults.clear_all();

  // Incarnation two: nothing shared with incarnation one but the directory.
  auto disk = std::make_shared<store::DiskStore>(dir.string());
  durable::JournalStore journals(disk);
  EXPECT_EQ(journals.hydrated(), 1u);
  EXPECT_EQ(journals.hydration_dropped(), 0u);

  service::ServiceOptions options;
  options.journals = &journals;
  options.store = disk;
  options.rebuild_threads = 1;
  service::RebuildService next(hub, options);
  ASSERT_TRUE(next.add_system(kSys, make_target()).ok());

  auto recovery = next.recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().journals_found, 1u);
  EXPECT_EQ(recovery.value().skipped, 0u);
  EXPECT_GT(recovery.value().cache_entries_recovered, 0u);
  ASSERT_EQ(recovery.value().resubmitted.size(), 1u);

  auto done = next.wait(recovery.value().resubmitted[0]);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, service::JobState::succeeded)
      << done.value().result.error().to_string();
  // Job 1 replays from the journal; job 2's compile lands as a warm-cache hit
  // persisted by the previous process.
  EXPECT_GT(done.value().trace.journal_replayed, 0u);
  EXPECT_GE(done.value().trace.cache_hits, 1u);
  EXPECT_GT(next.stats().compile_cache_hydrated, 0u);

  auto digest = hub.resolve("hub/minimd", kOutTag);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value().value, want);

  // Journal retirement is durable: a third incarnation has nothing to do.
  EXPECT_EQ(journals.size(), 0u);
  durable::JournalStore third(std::make_shared<store::DiskStore>(dir.string()));
  EXPECT_EQ(third.hydrated(), 0u);
  stdfs::remove_all(dir);
}

TEST(ServiceCrashRecoveryTest, RecoverSkipsJournalsItCanNoLongerServe) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  durable::JournalStore journals;

  // A journal whose metadata is not a request at all, and one whose image is
  // gone from the hub.
  (void)journals.open("garbage", "not json");
  (void)journals.open("hub/ghost:1.0|x86", R"({"name":"hub/ghost","tag":"1.0","system":"x86","priority":1})");

  service::ServiceOptions options;
  options.journals = &journals;
  service::RebuildService svc(hub, options);
  ASSERT_TRUE(svc.add_system(kSys, make_target()).ok());

  auto recovery = svc.recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery.value().journals_found, 2u);
  EXPECT_EQ(recovery.value().skipped, 2u);
  EXPECT_TRUE(recovery.value().resubmitted.empty());
  EXPECT_EQ(journals.size(), 0u);  // unserviceable journals are dropped
}

}  // namespace
}  // namespace comt
