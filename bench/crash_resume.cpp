// Crash-resume benchmark: what does durability cost, and what does it save?
//
//  1. Journal overhead on the no-crash path — a rebuild with a write-ahead
//     journal attached vs. the same rebuild without one (best-of-N each). The
//     acceptance bar is < 3% overhead.
//  2. Resume vs. restart — crash the rebuild at ~25/50/75% of its compile
//     jobs, then finish the image either by resuming from the journal or by
//     starting over, and compare wall times.
//
// Output is one JSON document on stdout (see bench/BENCH_crash_resume.json
// for a recorded run).
//
// Usage: crash_resume [--smoke] [--restart-smoke <dir>]
//   --smoke   fewer repetitions, and a nonzero exit when the no-crash journal
//             overhead exceeds both the 3% bar and a 2 ms floor (CI-friendly).
//   --restart-smoke <dir>
//             process-restart persistence check: crash a rebuild whose journal
//             and compile cache persist into a DiskStore at <dir>, then rebuild
//             with brand-new store/journal/cache objects over the same
//             directory and require a journal replay, at least one warm
//             compile-cache hit, and a bit-identical image. Nonzero exit on
//             any violation.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "durable/journal.hpp"
#include "sched/compile_cache.hpp"
#include "store/disk.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

using namespace comt;

namespace {

struct World {
  oci::Layout layout;
  std::string extended_tag;
};

int build_world(const sysmodel::SystemProfile& system, World& world) {
  if (!workloads::install_user_images(world.layout, system.arch).ok() ||
      !workloads::install_system_images(world.layout, system).ok()) {
    std::fprintf(stderr, "installing evaluation images failed\n");
    return 1;
  }
  const workloads::AppSpec* app = workloads::find_app("lammps");
  if (app == nullptr) {
    std::fprintf(stderr, "lammps workload missing from corpus\n");
    return 1;
  }
  auto file = dockerfile::parse(workloads::dockerfile_text(*app, system.arch, true));
  if (!file.ok()) {
    std::fprintf(stderr, "dockerfile: %s\n", file.error().to_string().c_str());
    return 1;
  }
  buildexec::ImageBuilder builder(world.layout);
  builder.set_apt_source(&workloads::ubuntu_repo(system.arch));
  buildexec::BuildRecord record;
  auto built = builder.build(file.value(), workloads::build_context(*app), "lammps.dist",
                             "", &record);
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.error().to_string().c_str());
    return 1;
  }
  auto stage = world.layout.find_image("lammps.dist.stage0");
  auto build_rootfs = world.layout.flatten(stage.value());
  auto extended =
      core::comtainer_build(world.layout, "lammps.dist", workloads::base_tag(system.arch),
                            record, build_rootfs.value());
  if (!extended.ok()) {
    std::fprintf(stderr, "comtainer_build: %s\n", extended.error().to_string().c_str());
    return 1;
  }
  world.extended_tag = "lammps.dist+coM";
  return 0;
}

core::RebuildOptions options_for(const sysmodel::SystemProfile& system,
                                 durable::Journal* journal,
                                 support::FaultInjector* faults) {
  core::RebuildOptions options;
  options.system = &system;
  options.system_repo = &workloads::system_repo(system);
  options.sysenv_tag = workloads::sysenv_tag(system);
  options.journal = journal;
  options.fault_injector = faults;
  return options;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// --restart-smoke: the storage layer's cross-process story, at the core
/// rebuild level. Everything durable (journal + compile cache) lives in one
/// DiskStore directory; the "process" boundary is the destruction of every
/// in-memory object between the crashed run and the resumed one.
int restart_smoke(const sysmodel::SystemProfile& system, World& world,
                  const std::string& dir) {
  namespace stdfs = std::filesystem;
  std::error_code ec;
  stdfs::remove_all(dir, ec);

  std::string want;
  {
    oci::Layout layout = world.layout;
    auto report = core::comtainer_rebuild(layout, world.extended_tag,
                                          options_for(system, nullptr, nullptr));
    if (!report.ok()) {
      std::fprintf(stderr, "reference rebuild: %s\n",
                   report.error().to_string().c_str());
      return 1;
    }
    want = report.value().image.manifest_digest.value;
  }

  // Incarnation one: crash inside job 2 after its cache entry persisted but
  // before its commit record landed.
  oci::Layout layout = world.layout;
  {
    auto disk = std::make_shared<store::DiskStore>(dir);
    durable::JournalStore journals(disk);
    auto journal = journals.open("restart-smoke", "");
    if (!journal.ok()) {
      std::fprintf(stderr, "journal open: %s\n", journal.error().to_string().c_str());
      return 1;
    }
    sched::CompileCache cache;
    cache.attach(disk);
    support::FaultInjector faults;
    faults.crash_at(core::kCrashJobCommitted, 2);
    core::RebuildOptions options = options_for(system, journal.value().get(), &faults);
    options.compile_cache = &cache;
    bool crashed = false;
    try {
      (void)core::comtainer_rebuild(layout, world.extended_tag, options);
    } catch (const support::CrashInjected&) {
      crashed = true;
    }
    if (!crashed) {
      std::fprintf(stderr, "restart smoke: injected crash did not fire\n");
      return 1;
    }
  }

  // Incarnation two: brand-new objects over the same directory.
  auto disk = std::make_shared<store::DiskStore>(dir);
  durable::JournalStore journals(disk);
  if (journals.hydrated() != 1) {
    std::fprintf(stderr, "restart smoke: expected 1 hydrated journal, got %zu\n",
                 journals.hydrated());
    return 1;
  }
  auto journal = journals.open("restart-smoke", "");
  if (!journal.ok()) {
    std::fprintf(stderr, "journal reopen: %s\n", journal.error().to_string().c_str());
    return 1;
  }
  sched::CompileCache cache;
  if (cache.attach(disk) == 0) {
    std::fprintf(stderr, "restart smoke: no compile-cache entries recovered\n");
    return 1;
  }
  core::RebuildOptions options = options_for(system, journal.value().get(), nullptr);
  options.compile_cache = &cache;
  auto report = core::comtainer_rebuild(layout, world.extended_tag, options);
  if (!report.ok()) {
    std::fprintf(stderr, "resumed rebuild: %s\n", report.error().to_string().c_str());
    return 1;
  }
  if (!report.value().resumed || report.value().journal_replayed == 0) {
    std::fprintf(stderr, "restart smoke: rebuild did not resume from the journal\n");
    return 1;
  }
  if (report.value().cache_hits < 1) {
    std::fprintf(stderr, "restart smoke: no warm compile-cache hit after restart\n");
    return 1;
  }
  if (report.value().image.manifest_digest.value != want) {
    std::fprintf(stderr, "restart smoke: resumed image differs from reference\n");
    return 1;
  }
  (void)journals.remove("restart-smoke");
  stdfs::remove_all(dir, ec);
  std::printf("restart smoke: %zu replayed, %zu warm hits, image bit-identical\n",
              report.value().journal_replayed, report.value().cache_hits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string restart_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--restart-smoke") == 0 && i + 1 < argc) {
      restart_dir = argv[++i];
    }
  }
  const int repetitions = smoke ? 3 : 7;

  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  World world;
  if (int rc = build_world(system, world); rc != 0) return rc;

  if (!restart_dir.empty()) return restart_smoke(system, world, restart_dir);

  // --- 1. No-crash journal overhead (best-of-N, private layout copies). ---
  double plain_ms = 1e300;
  double journaled_ms = 1e300;
  std::size_t jobs = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    {
      oci::Layout layout = world.layout;
      auto start = std::chrono::steady_clock::now();
      auto report = core::comtainer_rebuild(layout, world.extended_tag,
                                            options_for(system, nullptr, nullptr));
      if (!report.ok()) {
        std::fprintf(stderr, "plain rebuild: %s\n", report.error().to_string().c_str());
        return 1;
      }
      plain_ms = std::min(plain_ms, ms_since(start));
      jobs = report.value().jobs;
    }
    {
      oci::Layout layout = world.layout;
      durable::Journal journal;
      auto start = std::chrono::steady_clock::now();
      auto report = core::comtainer_rebuild(layout, world.extended_tag,
                                            options_for(system, &journal, nullptr));
      if (!report.ok()) {
        std::fprintf(stderr, "journaled rebuild: %s\n",
                     report.error().to_string().c_str());
        return 1;
      }
      journaled_ms = std::min(journaled_ms, ms_since(start));
    }
  }
  const double overhead_pct = (journaled_ms - plain_ms) / plain_ms * 100.0;

  // --- 2. Resume vs. restart at 25/50/75% crash points. ---
  struct Point {
    int percent;
    std::uint64_t crash_call;
    double resume_ms;
    double restart_ms;
    std::size_t replayed;
  };
  std::vector<Point> points;
  for (int percent : {25, 50, 75}) {
    Point point{};
    point.percent = percent;
    point.crash_call = std::max<std::uint64_t>(1, jobs * percent / 100);
    double resume_best = 1e300;
    double restart_best = 1e300;
    for (int rep = 0; rep < repetitions; ++rep) {
      // Crash a journaled rebuild right after `crash_call` jobs committed.
      oci::Layout layout = world.layout;
      durable::Journal journal;
      support::FaultInjector faults;
      faults.crash_at(core::kCrashJournalCommitted, point.crash_call);
      bool crashed = false;
      try {
        (void)core::comtainer_rebuild(layout, world.extended_tag,
                                      options_for(system, &journal, &faults));
      } catch (const support::CrashInjected&) {
        crashed = true;
      }
      if (!crashed) {
        std::fprintf(stderr, "crash injection at %d%% did not fire\n", percent);
        return 1;
      }
      faults.clear_all();

      // Resume: same journal picks up where the crash left off.
      {
        auto start = std::chrono::steady_clock::now();
        auto report = core::comtainer_rebuild(layout, world.extended_tag,
                                              options_for(system, &journal, nullptr));
        if (!report.ok() || !report.value().resumed) {
          std::fprintf(stderr, "resume at %d%% failed\n", percent);
          return 1;
        }
        resume_best = std::min(resume_best, ms_since(start));
        point.replayed = report.value().journal_replayed;
      }
      // Restart: throw the journal away and redo everything.
      {
        oci::Layout fresh = world.layout;
        auto start = std::chrono::steady_clock::now();
        auto report = core::comtainer_rebuild(fresh, world.extended_tag,
                                              options_for(system, nullptr, nullptr));
        if (!report.ok()) {
          std::fprintf(stderr, "restart at %d%% failed\n", percent);
          return 1;
        }
        restart_best = std::min(restart_best, ms_since(start));
      }
    }
    point.resume_ms = resume_best;
    point.restart_ms = restart_best;
    points.push_back(point);
  }

  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n", world.extended_tag.c_str());
  std::printf("  \"system\": \"%s\",\n", system.name.c_str());
  std::printf("  \"repetitions\": %d,\n", repetitions);
  std::printf("  \"compile_jobs\": %zu,\n", jobs);
  std::printf("  \"no_crash\": {\"plain_ms\": %.3f, \"journaled_ms\": %.3f, "
              "\"overhead_pct\": %.2f},\n",
              plain_ms, journaled_ms, overhead_pct);
  std::printf("  \"crash_points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::printf("    {\"percent\": %d, \"jobs_committed\": %llu, \"replayed\": %zu, "
                "\"resume_ms\": %.3f, \"restart_ms\": %.3f, \"saved_pct\": %.2f}%s\n",
                p.percent, static_cast<unsigned long long>(p.crash_call), p.replayed,
                p.resume_ms, p.restart_ms,
                (p.restart_ms - p.resume_ms) / p.restart_ms * 100.0,
                i + 1 == points.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");

  if (smoke) {
    // The acceptance bar. Tiny absolute deltas on a fast simulated toolchain
    // can exceed 3% from scheduler noise alone, so allow a 2 ms floor.
    const double delta_ms = journaled_ms - plain_ms;
    if (overhead_pct >= 3.0 && delta_ms >= 2.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: journal overhead %.2f%% (%.3f ms) exceeds the 3%% bar\n",
                   overhead_pct, delta_ms);
      return 1;
    }
    if (overhead_pct < 3.0) {
      std::printf("smoke: journal overhead %.2f%% — within the 3%% bar\n", overhead_pct);
    } else {
      std::printf("smoke: journal overhead %.2f%% — above the 3%% bar, passed by the "
                  "2 ms floor (%.3f ms)\n",
                  overhead_pct, delta_ms);
    }
  }
  return 0;
}
