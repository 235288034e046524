// Microbenchmark for the parallel rebuild engine: comtainer_rebuild of the
// lammps extended image at 1/2/4/8 scheduler threads, sequential baseline
// first, plus a warm-cache rerun showing the content-addressed compile
// cache replaying every job, plus a tracing-overhead pair (tracer detached
// vs attached) that validates the exported Chrome trace: the document must
// re-parse through src/json, carry exactly one "job:*" span per compile job,
// and every job span's parent chain must reach the root "rebuild" span.
//
// The emitted JSON records its own provenance — hardware-thread count, CPU
// model, and run mode — so a checked-in baseline can never be silently
// compared against numbers from a different class of machine (see
// docs/PERFORMANCE.md for the baseline-recording procedure).
//
// Usage: parallel_rebuild [--smoke] [--trace PATH] [--json PATH]
//   --smoke        one repetition, CI-friendly thread sweep (1 and 2 threads,
//                  plus 4 when the host has >= 4 hardware threads — in which
//                  case a 4-thread speedup < 1.0 hard-fails). Also hard-fails
//                  if tracing overhead exceeds 5% with at least a 2 ms
//                  absolute delta (same noise floor as bench/crash_resume)
//                  or if the exported trace fails validation.
//   --trace PATH   write the traced rebuild's Chrome trace JSON to PATH
//                  (open in chrome://tracing or https://ui.perfetto.dev).
//   --json PATH    write machine-readable results to PATH.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "json/json.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/compile_cache.hpp"
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
                                 std::size_t threads, sched::CompileCache* cache) {
  core::RebuildOptions options;
  options.system = &system;
  options.system_repo = &workloads::system_repo(system);
  options.sysenv_tag = workloads::sysenv_tag(system);
  options.threads = threads;
  options.compile_cache = cache;
  return options;
}

double round3(double value) { return std::round(value * 1000.0) / 1000.0; }

/// "model name" line from /proc/cpuinfo, or "unknown" — recorded in the
/// JSON so a baseline carries the machine it was measured on.
std::string cpu_model() {
  std::FILE* info = std::fopen("/proc/cpuinfo", "r");
  if (info == nullptr) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, info) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    if (const char* colon = std::strchr(line, ':')) {
      model = colon + 1;
      while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
        model.erase(model.begin());
      }
      while (!model.empty() &&
             (model.back() == '\n' || model.back() == '\r' || model.back() == ' ')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(info);
  return model;
}

/// Checks the exported Chrome trace against the rebuild report: the JSON must
/// round-trip through src/json, hold exactly `report.jobs` events whose name
/// starts with "job:", and every job event's parent chain (args.id/args.parent
/// links) must terminate at the root "rebuild" span. Returns 0 on success.
int validate_trace(const std::string& trace_json, const core::RebuildReport& report,
                   std::size_t& span_count, std::size_t& job_spans) {
  auto parsed = json::parse(trace_json);
  if (!parsed.ok()) {
    std::fprintf(stderr, "TRACE: chrome trace does not re-parse: %s\n",
                 parsed.error().to_string().c_str());
    return 1;
  }
  const json::Value* events = parsed.value().find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "TRACE: missing traceEvents array\n");
    return 1;
  }
  span_count = events->as_array().size();
  std::map<std::uint64_t, std::uint64_t> parent_of;
  std::uint64_t root_id = 0;
  std::vector<std::uint64_t> job_ids;
  for (const json::Value& event : events->as_array()) {
    const json::Value* args = event.find("args");
    if (args == nullptr) {
      std::fprintf(stderr, "TRACE: event without args\n");
      return 1;
    }
    const std::uint64_t id = std::stoull(args->get_string("id", "0"));
    parent_of[id] = std::stoull(args->get_string("parent", "0"));
    const std::string name = event.get_string("name");
    if (name == "rebuild") root_id = id;
    if (name.rfind("job:", 0) == 0) job_ids.push_back(id);
  }
  job_spans = job_ids.size();
  if (root_id == 0) {
    std::fprintf(stderr, "TRACE: no root \"rebuild\" span\n");
    return 1;
  }
  if (job_ids.size() != report.jobs) {
    std::fprintf(stderr, "TRACE: %zu job spans but the report ran %zu compile jobs\n",
                 job_ids.size(), report.jobs);
    return 1;
  }
  for (std::uint64_t id : job_ids) {
    std::uint64_t cursor = id;
    std::size_t hops = 0;
    while (cursor != root_id && cursor != 0 && hops++ < parent_of.size()) {
      auto it = parent_of.find(cursor);
      cursor = it == parent_of.end() ? 0 : it->second;
    }
    if (cursor != root_id) {
      std::fprintf(stderr, "TRACE: job span %llu is not nested under the rebuild root\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }
  return 0;
}

int write_file(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(content.data(), 1, content.size(), out);
  std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const int repetitions = smoke ? 1 : 5;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (smoke) {
    // CI sweep: keep it short, but include 4 threads whenever the host can
    // actually run 4 — that's the width the speedup gate below checks.
    thread_counts = hw_threads >= 4 ? std::vector<std::size_t>{1, 2, 4}
                                    : std::vector<std::size_t>{1, 2};
  }

  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  World world;
  if (int rc = build_world(system, world); rc != 0) return rc;

  std::printf("parallel rebuild of %s on %s (%d repetition%s, best time)\n",
              world.extended_tag.c_str(), system.name.c_str(), repetitions,
              repetitions == 1 ? "" : "s");
  std::printf("host reports %u hardware thread%s — speedups above that (or on a "
              "1-core host, above 1) are not expected\n",
              hw_threads, hw_threads == 1 ? "" : "s");
  std::printf("%-8s %12s %10s %10s %8s %12s\n", "threads", "best-ms", "sched-ms",
              "speedup", "jobs", "image-digest");

  json::Array sweep_json;
  double baseline_ms = 0;
  double speedup_at_4 = 0;
  std::string baseline_digest;
  for (std::size_t threads : thread_counts) {
    double best_ms = 0;
    double sched_ms = 0;
    std::size_t jobs = 0;
    std::string digest;
    for (int rep = 0; rep < repetitions; ++rep) {
      auto start = std::chrono::steady_clock::now();
      auto report =
          core::comtainer_rebuild(world.layout, world.extended_tag,
                                  options_for(system, threads, nullptr));
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!report.ok()) {
        std::fprintf(stderr, "rebuild (threads=%zu): %s\n", threads,
                     report.error().to_string().c_str());
        return 1;
      }
      if (rep == 0 || ms < best_ms) {
        best_ms = ms;
        sched_ms = report.value().wall_ms;
      }
      jobs = report.value().jobs;
      digest = report.value().image.manifest_digest.value;
    }
    if (threads == thread_counts.front()) {
      baseline_ms = best_ms;
      baseline_digest = digest;
    }
    if (digest != baseline_digest) {
      std::fprintf(stderr, "DIGEST MISMATCH at %zu threads: parallel rebuild is not "
                           "bit-identical\n", threads);
      return 1;
    }
    std::printf("%-8zu %12.2f %10.2f %9.2fx %8zu %12.12s\n", threads, best_ms,
                sched_ms, baseline_ms / best_ms, jobs, digest.c_str());
    if (threads == 4) speedup_at_4 = baseline_ms / best_ms;
    json::Object row;
    row.emplace_back("threads", json::Value(static_cast<std::uint64_t>(threads)));
    row.emplace_back("best_ms", json::Value(round3(best_ms)));
    row.emplace_back("sched_ms", json::Value(round3(sched_ms)));
    row.emplace_back("speedup", json::Value(round3(baseline_ms / best_ms)));
    row.emplace_back("jobs", json::Value(static_cast<std::uint64_t>(jobs)));
    sweep_json.push_back(json::Value(std::move(row)));
  }

  // Concurrency must pay for itself: on a host that can actually run four
  // workers, a 4-thread rebuild slower than sequential is a regression in
  // the scheduler hot path, not noise.
  if (smoke) {
    if (hw_threads >= 4) {
      if (speedup_at_4 < 1.0) {
        std::fprintf(stderr, "SMOKE: 4-thread speedup %.2fx < 1.0x — concurrency "
                             "costs more than it buys\n", speedup_at_4);
        return 1;
      }
      std::printf("4-thread speedup gate passed: %.2fx\n", speedup_at_4);
    } else {
      std::printf("SKIP: 4-thread speedup gate needs >= 4 hardware threads, host "
                  "has %u\n", hw_threads);
    }
  }

  // Warm-cache rerun: every compile job replays from the cache.
  sched::CompileCache cache;
  auto cold = core::comtainer_rebuild(world.layout, world.extended_tag,
                                      options_for(system, 2, &cache));
  auto warm_start = std::chrono::steady_clock::now();
  auto warm = core::comtainer_rebuild(world.layout, world.extended_tag,
                                      options_for(system, 2, &cache));
  double warm_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - warm_start)
                       .count();
  if (!cold.ok() || !warm.ok()) {
    std::fprintf(stderr, "cached rebuild failed\n");
    return 1;
  }
  std::printf("\nwarm compile cache (2 threads): %.2f ms, %zu/%zu jobs replayed "
              "(hit rate %.0f%%)\n",
              warm_ms, warm.value().cache_hits, warm.value().jobs,
              warm.value().jobs == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(warm.value().cache_hits) /
                        static_cast<double>(warm.value().jobs));
  if (warm.value().cache_misses != 0) {
    std::fprintf(stderr, "expected a fully warm cache, saw %zu misses\n",
                 warm.value().cache_misses);
    return 1;
  }

  // ---- tracing overhead ----------------------------------------------------
  // Best-of-reps at 2 threads with the tracer detached, then attached (a
  // fresh Tracer per repetition so span buffers never accumulate across
  // reps). The traced run's export is then validated structurally.
  double off_ms = 0;
  double on_ms = 0;
  std::unique_ptr<obs::Tracer> best_tracer;
  core::RebuildReport traced_report;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto report = core::comtainer_rebuild(world.layout, world.extended_tag,
                                          options_for(system, 2, nullptr));
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!report.ok()) {
      std::fprintf(stderr, "untraced rebuild: %s\n", report.error().to_string().c_str());
      return 1;
    }
    if (rep == 0 || ms < off_ms) off_ms = ms;
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    auto tracer = std::make_unique<obs::Tracer>();
    core::RebuildOptions options = options_for(system, 2, nullptr);
    options.tracer = tracer.get();
    auto start = std::chrono::steady_clock::now();
    auto report = core::comtainer_rebuild(world.layout, world.extended_tag, options);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!report.ok()) {
      std::fprintf(stderr, "traced rebuild: %s\n", report.error().to_string().c_str());
      return 1;
    }
    if (rep == 0 || ms < on_ms) {
      on_ms = ms;
      best_tracer = std::move(tracer);
      traced_report = std::move(report).value();
    }
  }
  const double overhead_delta = on_ms - off_ms;
  const double overhead_pct = off_ms == 0 ? 0.0 : 100.0 * overhead_delta / off_ms;
  std::printf("\ntracing overhead (2 threads): off %.2f ms, on %.2f ms (%+.2f%%), "
              "%zu spans\n",
              off_ms, on_ms, overhead_pct, best_tracer->span_count());
  std::printf("%s",
              obs::profile_phases(*best_tracer, traced_report.root_span).to_string().c_str());

  const std::string trace_json = best_tracer->chrome_trace_json();
  std::size_t span_count = 0;
  std::size_t job_spans = 0;
  if (validate_trace(trace_json, traced_report, span_count, job_spans) != 0) return 1;
  std::printf("trace validated: %zu events, %zu compile-job spans nested under the "
              "rebuild root\n", span_count, job_spans);
  if (!trace_path.empty()) {
    if (write_file(trace_path, trace_json) != 0) return 1;
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  // Same noise policy as bench/crash_resume: on a ~3 ms simulated rebuild the
  // relative figure swings run to run, so the percentage gate only fires when
  // the absolute delta also clears a 2 ms floor.
  if (smoke && overhead_pct > 5.0 && overhead_delta >= 2.0) {
    std::fprintf(stderr, "SMOKE: tracing overhead %.2f%% (%.2f ms) exceeds the 5%% "
                         "bar with a 2 ms floor\n", overhead_pct, overhead_delta);
    return 1;
  }

  if (!json_path.empty()) {
    json::Object doc;
    doc.emplace_back("workload", json::Value(world.extended_tag));
    doc.emplace_back("system", json::Value(system.name));
    doc.emplace_back("mode", json::Value(std::string(smoke ? "smoke" : "full")));
    doc.emplace_back("hardware_threads",
                     json::Value(static_cast<std::uint64_t>(hw_threads)));
    doc.emplace_back("cpu_model", json::Value(cpu_model()));
    doc.emplace_back("repetitions", json::Value(repetitions));
    doc.emplace_back("compile_jobs",
                     json::Value(static_cast<std::uint64_t>(traced_report.jobs)));
    doc.emplace_back("threads", json::Value(std::move(sweep_json)));
    json::Object warm_obj;
    warm_obj.emplace_back("warm_ms", json::Value(round3(warm_ms)));
    warm_obj.emplace_back("hits",
                          json::Value(static_cast<std::uint64_t>(warm.value().cache_hits)));
    warm_obj.emplace_back("jobs",
                          json::Value(static_cast<std::uint64_t>(warm.value().jobs)));
    doc.emplace_back("warm_cache", json::Value(std::move(warm_obj)));
    json::Object tracing;
    tracing.emplace_back("off_ms", json::Value(round3(off_ms)));
    tracing.emplace_back("on_ms", json::Value(round3(on_ms)));
    tracing.emplace_back("overhead_pct", json::Value(round3(overhead_pct)));
    tracing.emplace_back("spans", json::Value(static_cast<std::uint64_t>(span_count)));
    tracing.emplace_back("compile_job_spans",
                         json::Value(static_cast<std::uint64_t>(job_spans)));
    doc.emplace_back("tracing", json::Value(std::move(tracing)));
    if (write_file(json_path, json::serialize_pretty(json::Value(std::move(doc)))) != 0) {
      return 1;
    }
    std::printf("results written to %s\n", json_path.c_str());
  }
  return 0;
}
