// The coMtainer back-end (§4.1/§4.2), system side:
//
//  comtainer_build    — user side: analyze the recorded build + images, add
//                       the cache layer, tag "<tag>+coM" (extended image).
//  comtainer_rebuild  — system side: in a Sysenv container, re-execute the
//                       (adapter-transformed) build graph with the system's
//                       toolchain and software stack; collect the results in
//                       a rebuild layer, tag "<tag>+coMre" (rebuilt image).
//                       When a PGO adapter is active, runs the automated
//                       instrument -> execute -> recompile feedback loop.
//                       Compile jobs run through the sched:: DAG scheduler:
//                       independent jobs execute concurrently when
//                       RebuildOptions::threads > 1, and an optional
//                       content-addressed compile cache replays unchanged
//                       jobs without running the toolchain.
//  comtainer_redirect — system side: in a fresh Rebase container, install
//                       (optimized) runtime packages, place the rebuilt or
//                       original application files at their original paths,
//                       and commit the final optimized image, "<tag>+opt".
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "buildexec/record.hpp"
#include "core/adapters.hpp"
#include "core/cache.hpp"
#include "core/models.hpp"
#include "durable/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oci/oci.hpp"
#include "sched/compile_cache.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"

namespace comt::core {

/// Fault-injection site each compile job checks when RebuildOptions carries
/// an injector (spurious compile failures, the kind a flaky build node gives).
inline constexpr std::string_view kCompileFaultSite = "compile.job";

// Crash-injection sites a journaled rebuild passes through, in execution
// order. Arming one (FaultInjector::crash_at / crash_next) makes the rebuild
// die there by throwing support::CrashInjected — the in-process equivalent of
// SIGKILL at that instant. Together with the torn-write sites
// (durable::kJournalAppendSite, oci::kBlobPutSite) they cover every
// durability-relevant moment of a rebuild.
/// Entry of a compile job, before any work or journal replay.
inline constexpr std::string_view kCrashJobStart = "crash.rebuild.job_start";
/// Job outputs are committed to the rootfs but NOT yet journaled — the
/// classic window where a crash loses completed work (the resume re-runs it).
inline constexpr std::string_view kCrashJobCommitted = "crash.rebuild.job_committed";
/// The commit record hit the journal; a crash here must not re-run the job.
inline constexpr std::string_view kCrashJournalCommitted =
    "crash.rebuild.journal_committed";
/// All jobs done, right before the rebuilt image is assembled and tagged.
inline constexpr std::string_view kCrashFinish = "crash.rebuild.finish";
/// Every crash site above, for exhaustive crash-sweep tests.
inline constexpr std::string_view kRebuildCrashSites[] = {
    kCrashJobStart, kCrashJobCommitted, kCrashJournalCommitted, kCrashFinish};

/// User-side coMtainer-build. `dist_tag` is the application image built by
/// the two-stage Dockerfile, `base_tag` the dist stage's base image; the
/// build record and the build stage's final root filesystem come from the
/// hijacking build container. Returns the extended image ("<dist_tag>+coM").
Result<oci::Image> comtainer_build(oci::Layout& layout, std::string_view dist_tag,
                                   std::string_view base_tag,
                                   const buildexec::BuildRecord& record,
                                   const vfs::Filesystem& build_rootfs,
                                   const CacheOptions& cache_options = {});

struct RebuildOptions {
  /// Target system the rebuild adapts to. Required.
  const sysmodel::SystemProfile* system = nullptr;
  /// The system's package repository (optimized builds of the stack). Required.
  const pkg::Repository* system_repo = nullptr;
  /// Sysenv image tag in the layout: the system's build environment.
  std::string sysenv_tag;
  /// Adapters to apply, in order, to the build graph / packages / artifacts.
  std::vector<const SystemAdapter*> adapters;
  /// Input for the PGO feedback run (should mirror the deployment input).
  sysmodel::RunRequest profile_run;
  /// Worker threads for the compile scheduler. 1 (default) runs every job
  /// inline on the calling thread in topological order; >= 2 runs
  /// independent jobs concurrently. Both modes share one job code path and
  /// produce bit-identical rebuilt images.
  std::size_t threads = 1;
  /// Optional content-addressed compile cache. When set, each job first
  /// looks up (toolchain, ISA, cwd, argv) + input digests and replays the
  /// cached outputs on a hit; misses execute and populate the cache. Keep
  /// one cache alive across rebuilds to skip unchanged compilations — or
  /// attach it to a store::KvStore (CompileCache::attach) to keep it warm
  /// across processes. May be shared between concurrent rebuilds (it is
  /// thread-safe).
  sched::CompileCache* compile_cache = nullptr;
  /// Optional fault-injection hook: every compile job checks
  /// kCompileFaultSite before running, so callers with retry logic (the
  /// rebuild service) can be exercised against transient build failures.
  /// With a journal attached the same injector also drives the
  /// kCrash*/torn-write sites above.
  support::FaultInjector* fault_injector = nullptr;
  /// Optional write-ahead journal making the rebuild crash-safe and
  /// resumable. An empty journal gets a begin record (inputs digest, system,
  /// planned DAG) and one commit record per completed compile job; re-running
  /// with the same journal replays committed jobs from their recorded outputs
  /// instead of executing them and produces a bit-identical image. A journal
  /// whose begin record names different inputs is rejected
  /// (Errc::invalid_argument) — plans must not silently mix.
  durable::Journal* journal = nullptr;
  /// Caller-owned context stored in the journal's begin record (the rebuild
  /// service serializes the submit request here so recover() can resubmit).
  std::string journal_metadata;
  /// Optional tracer. When set, the rebuild emits a root "rebuild" span with
  /// the pipeline phases ("resolve", per-pass scheduling with one span per
  /// compile job, "layer-commit") nested under it, and RebuildReport carries
  /// the root span id (obs::profile_phases folds the spans under it into a
  /// per-phase profile).
  obs::Tracer* tracer = nullptr;
  /// Parent for the root span (e.g. the service's per-attempt span).
  obs::SpanId parent_span = obs::kNoSpan;
  /// Optional metrics: cache hits/misses, journal replay counts, scheduler
  /// and pool instrumentation land here ("rebuild.*", "sched.*").
  obs::MetricsRegistry* metrics = nullptr;
};

/// Diagnostics from a rebuild (how many nodes re-ran, profile feedback, …).
struct RebuildReport {
  /// The rebuilt image ("…+coMre").
  oci::Image image;
  /// Build-graph nodes whose job body ran, summed over PGO passes.
  std::size_t nodes_executed = 0;
  /// Files captured into the rebuild layer (/.coMtainer/rebuild/...).
  std::size_t files_rebuilt = 0;
  /// True when a PGO adapter drove the instrument→run→recompile loop.
  bool profile_feedback = false;
  /// Package substitutions the adapters proposed (original → system build).
  std::map<std::string, std::string> package_replacements;
  /// Compile jobs submitted to the scheduler, summed over PGO passes.
  std::size_t jobs = 0;
  /// Jobs replayed from the compile cache without running the toolchain.
  std::size_t cache_hits = 0;
  /// Jobs that executed the toolchain (includes all jobs when no cache is
  /// configured).
  std::size_t cache_misses = 0;
  /// Wall-clock milliseconds spent inside the compile scheduler, summed
  /// over PGO passes.
  double wall_ms = 0;
  /// Jobs replayed from journal commit records (crash-resume; never ran).
  std::size_t journal_replayed = 0;
  /// Jobs whose commit record was appended to the journal this run.
  std::size_t journal_committed = 0;
  /// Torn journal bytes dropped during replay (a crash mid-append).
  std::uint64_t journal_truncated_bytes = 0;
  /// True when an existing begin record matched — this run resumed a
  /// previously interrupted rebuild.
  bool resumed = false;
  /// True when the journal was folded into a canonical snapshot after the
  /// final pass fully committed (superseded PGO-pass records dropped).
  bool journal_compacted = false;
  /// What that compaction did (zero-initialized when it never ran).
  durable::CompactionReport journal_compaction;
  /// Root span id of this rebuild in RebuildOptions::tracer (kNoSpan when no
  /// tracer was attached).
  obs::SpanId root_span = obs::kNoSpan;
};

Result<RebuildReport> comtainer_rebuild(oci::Layout& layout, std::string_view extended_tag,
                                        const RebuildOptions& options);

struct RedirectOptions {
  /// Target system (currently informational for redirect). Optional.
  const sysmodel::SystemProfile* system = nullptr;
  /// The system's package repository; source of replacement packages. Required.
  const pkg::Repository* system_repo = nullptr;
  /// Rebase image tag in the layout: the minimal runtime base.
  std::string rebase_tag;
  /// Extra package replacements applied even without a rebuild layer
  /// (redirect-only flows, e.g. the motivation figure's libo step).
  std::map<std::string, std::string> package_replacements;
  /// Worker threads for staging file content out of the source image.
  /// 1 (default) stages inline; >= 2 stages concurrently. Writes into the
  /// optimized image are always applied sequentially in model order, so the
  /// result is identical either way.
  std::size_t threads = 1;
  /// Optional tracer: emits a "redirect" span covering the whole operation.
  obs::Tracer* tracer = nullptr;
  /// Parent for the redirect span.
  obs::SpanId parent_span = obs::kNoSpan;
};

struct RedirectReport {
  /// The optimized image ("…+opt").
  oci::Image image;
  /// Runtime packages installed from the system repository (substitutions).
  std::size_t packages_installed = 0;
  /// Application files placed from the rebuild layer's content.
  std::size_t files_from_rebuild = 0;
  /// Application files carried over byte-for-byte from the original image.
  std::size_t files_from_original = 0;
  /// Wall-clock milliseconds spent in the staging scheduler.
  double wall_ms = 0;
};

Result<RedirectReport> comtainer_redirect(oci::Layout& layout, std::string_view source_tag,
                                          const RedirectOptions& options);

/// Strips the "+coM"/"+coMre"/"+opt" suffix from a tag.
std::string base_tag_of(std::string_view tag);

}  // namespace comt::core
