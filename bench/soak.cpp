// SLO-gated soak harness for the overload-safe rebuild fleet (the
// robustness counterpart of service_throughput's single-service load run).
//
// The run drives N tenants' rebuild traffic — a quiet tenant and a flooding
// hot tenant, plus a quota-capped one — across BOTH ISAs (an x86-64 system
// and an AArch64 system fed by the same cross-portable images) and mixed
// toolchain adapter sets, through a multi-replica Fleet whose shared
// substrate sits behind a RemoteStore with an injected flaky network and a
// circuit breaker. Phases:
//
//   1. publish + warmup   cross-portable images built once, every
//                         (image, system) rebuilt once so later phases
//                         measure a uniformly warm compile cache
//   2. solo baseline      the quiet tenant runs alone; its per-job queue
//                         waits are the fairness baseline
//   3. hot-tenant flood   hot clients keep >= 10x the quiet tenant's
//                         outstanding jobs queued while the quiet tenant
//                         repeats its baseline run
//   4. quota burst        a capped tenant bursts past its token bucket;
//                         the overflow must throttle, nobody else sheds
//   5. breaker drill      (quiescent) the network goes fully dark, the
//                         breaker must trip open, fail fast without
//                         touching the wire, and recover through its
//                         half-open probe once the network heals
//
// SLO gates (hard failures, applied in every mode):
//   - fairness: quiet tenant flood p99 queue wait <= 3x max(solo p99, floor)
//   - zero lost tickets: every ticket reaches a terminal state
//   - zero failed tickets: the flaky network must be absorbed by retries
//   - breaker: opens under the outage, recovers to closed, fast-fails
//     without consuming network attempts
//
// Usage: soak [--smoke] [--duration-s D] [--quiet-waves N] [--hot-clients N]
//             [--floor-ms F] [--json PATH]
//   --smoke        seconds-scale run for CI (flood ~1.5 s).
//   --duration-s   minimum flood wall time; the full run defaults to 45 s and
//                  is minutes-capable (e.g. --duration-s 300).
//   On hosts with one hardware thread the full run auto-downscales its heavy
//   rows (duration, clients, replicas) and records that provenance in the
//   JSON.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buildexec/builder.hpp"
#include "core/backend.hpp"
#include "dockerfile/dockerfile.hpp"
#include "fleet/fleet.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/remote.hpp"
#include "store/store.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

using namespace comt;

namespace {

/// Builds `app` from its cross-portable script (ISA-specific flags dropped)
/// on the amd64 user side and pushes the extended image — one publish serves
/// both the x86 and the AArch64 target system.
Result<std::string> publish_cross(registry::Registry& hub, oci::Layout& layout,
                                  buildexec::ImageBuilder& builder,
                                  const workloads::AppSpec& app) {
  std::string script = workloads::dockerfile_cross_comt(app, "amd64");
  COMT_TRY(dockerfile::Dockerfile file, dockerfile::parse(script));
  buildexec::BuildRecord record;
  std::string dist_tag = app.name + ".dist";
  COMT_TRY(oci::Image dist,
           builder.build(file, workloads::build_context(app), dist_tag, "", &record));
  (void)dist;
  COMT_TRY(oci::Image stage, layout.find_image(dist_tag + ".stage0"));
  COMT_TRY(vfs::Filesystem rootfs, layout.flatten(stage));
  COMT_TRY(oci::Image extended,
           core::comtainer_build(layout, dist_tag, workloads::base_tag("amd64"),
                                 record, rootfs));
  (void)extended;
  std::string name = "hub/" + app.name;
  COMT_TRY_STATUS(hub.push(layout, dist_tag + "+coM", name, "1.0"));
  return name;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double round3(double value) { return std::round(value * 1000.0) / 1000.0; }

double since_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
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

/// Every ticket the harness submits settles here exactly once; anything that
/// cannot be shown terminal counts as lost — the zero-lost-tickets gate.
struct Ledger {
  std::mutex mutex;
  std::size_t total = 0;
  std::size_t succeeded = 0;
  std::size_t throttled = 0;
  std::size_t failed = 0;
  std::size_t other = 0;
  std::size_t lost = 0;

  void settle(const Result<service::TicketStatus>& done) {
    std::lock_guard<std::mutex> lock(mutex);
    ++total;
    if (!done.ok() || !service::is_terminal(done.value().state)) {
      ++lost;
      return;
    }
    switch (done.value().state) {
      case service::JobState::succeeded: ++succeeded; break;
      case service::JobState::throttled: ++throttled; break;
      case service::JobState::failed: ++failed; break;
      default: ++other; break;
    }
  }
};

struct WaveJob {
  std::string image;
  std::string system;
};

/// Submits one tenant wave as a burst, waits every ticket, settles it, and
/// appends succeeded jobs' queue waits to `waits`.
void run_wave(fleet::Fleet& fleet, const std::vector<WaveJob>& wave,
              const std::string& tenant, service::Priority priority, Ledger& ledger,
              std::vector<double>* waits) {
  std::vector<fleet::FleetTicket> tickets;
  tickets.reserve(wave.size());
  for (const WaveJob& job : wave) {
    service::SubmitRequest request;
    request.name = job.image;
    request.tag = "1.0";
    request.system = job.system;
    request.priority = priority;
    request.tenant = tenant;
    auto ticket = fleet.submit(request);
    if (!ticket.ok()) {
      std::lock_guard<std::mutex> lock(ledger.mutex);
      ++ledger.total;
      ++ledger.lost;
      continue;
    }
    tickets.push_back(ticket.value());
  }
  for (const fleet::FleetTicket& ticket : tickets) {
    auto done = fleet.wait(ticket);
    ledger.settle(done);
    if (waits != nullptr && done.ok() &&
        done.value().state == service::JobState::succeeded) {
      waits->push_back(done.value().trace.queue_ms);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int quiet_waves = 0;
  int hot_clients = 0;
  double floor_ms = 25.0;
  double duration_s = 0.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--duration-s") == 0 && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--quiet-waves") == 0 && i + 1 < argc) {
      quiet_waves = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--hot-clients") == 0 && i + 1 < argc) {
      hot_clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--floor-ms") == 0 && i + 1 < argc) {
      floor_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const unsigned host_threads = std::max(1u, std::thread::hardware_concurrency());
  bool heavy_skipped = false;
  std::size_t replicas = smoke ? 2 : 3;
  int hot_apps = smoke ? 3 : 5;
  int hot_burst = 2;  // each hot client keeps this many waves outstanding
  if (quiet_waves <= 0) quiet_waves = smoke ? 4 : 24;
  if (hot_clients <= 0) hot_clients = smoke ? 2 : 4;
  if (duration_s <= 0.0) duration_s = smoke ? 1.5 : 45.0;
  if (!smoke && host_threads <= 1) {
    // A one-thread host serializes the whole flood; the heavy full-scale rows
    // would measure the scheduler of the host, not of the fleet. Down-scale
    // them and say so in the provenance.
    heavy_skipped = true;
    replicas = 2;
    hot_apps = 3;
    quiet_waves = std::min(quiet_waves, 8);
    hot_clients = std::min(hot_clients, 2);
    duration_s = std::min(duration_s, 8.0);
    std::printf("NOTE: 1 hardware thread — heavy rows auto-skipped "
                "(downscaled to %d hot clients, %zu replicas, %.0f s flood)\n",
                hot_clients, replicas, duration_s);
  }
  const double flood_target_ms = duration_s * 1000.0;
  const double solo_target_ms = flood_target_ms / 3.0;
  // The quiet tenant's cadence: one wave, then a short think pause — the same
  // pattern in the solo and flood phases, so the two p99s are comparable.
  const auto quiet_think = std::chrono::milliseconds(5);

  // Cross-portable app mix: every app here builds on amd64 and crosses to the
  // AArch64 system (none is ISA-locked). The hot tenant floods with its set;
  // the quiet tenant owns a distinct app so its jobs never coalesce with the
  // flood and its queue waits are genuinely its own.
  const std::vector<const char*> hot_names = {"minimd", "comd", "hpccg", "minife",
                                              "miniaero"};
  const char* quiet_name = "miniamr";

  // ---- publish --------------------------------------------------------------
  registry::Registry hub;
  oci::Layout build_layout;
  if (!workloads::install_user_images(build_layout, "amd64").ok()) {
    std::fprintf(stderr, "installing user-side images failed\n");
    return 1;
  }
  buildexec::ImageBuilder builder(build_layout);
  builder.set_apt_source(&workloads::ubuntu_repo("amd64"));

  std::vector<std::string> hot_images;
  for (int i = 0; i < hot_apps; ++i) {
    const workloads::AppSpec* app = workloads::find_app(hot_names[static_cast<std::size_t>(i)]);
    if (app == nullptr) {
      std::fprintf(stderr, "%s missing from corpus\n", hot_names[static_cast<std::size_t>(i)]);
      return 1;
    }
    auto published = publish_cross(hub, build_layout, builder, *app);
    if (!published.ok()) {
      std::fprintf(stderr, "publish %s: %s\n", app->name.c_str(),
                   published.error().to_string().c_str());
      return 1;
    }
    hot_images.push_back(published.value());
  }
  const workloads::AppSpec* quiet_app = workloads::find_app(quiet_name);
  if (quiet_app == nullptr) {
    std::fprintf(stderr, "%s missing from corpus\n", quiet_name);
    return 1;
  }
  auto quiet_published = publish_cross(hub, build_layout, builder, *quiet_app);
  if (!quiet_published.ok()) {
    std::fprintf(stderr, "publish %s: %s\n", quiet_name,
                 quiet_published.error().to_string().c_str());
    return 1;
  }
  const std::string quiet_image = quiet_published.value();

  // ---- fleet over a flaky remote substrate ----------------------------------
  obs::MetricsRegistry metrics;
  support::FaultInjector net_faults;     // the simulated network
  support::FaultInjector compile_faults; // wobbly compile nodes
  hub.set_fault_injector(&net_faults);

  store::RemoteStore::Options remote_options;
  remote_options.get_latency = std::chrono::microseconds(200);
  remote_options.put_latency = std::chrono::microseconds(200);
  remote_options.max_attempts = 3;
  remote_options.backoff = std::chrono::microseconds(5);
  remote_options.breaker_threshold = 4;
  remote_options.breaker_cooldown = std::chrono::milliseconds(50);
  auto remote = std::make_shared<store::RemoteStore>(
      std::make_shared<store::MemStore>(), remote_options);
  remote->set_fault_injector(&net_faults);
  remote->set_observer(nullptr, &metrics);
  if (!remote->put("soak/sentinel", "ok").ok()) {
    std::fprintf(stderr, "sentinel put failed\n");
    return 1;
  }

  // Adapter sets give the two systems genuinely different rebuild pipelines:
  // the x86 side runs the paper's "adapted" set, the AArch64 side crosses the
  // ISA first. Declared before the fleet so they outlive every rebuild.
  core::CrossIsaAdapter cross;
  core::LibraryAdapter libo;
  core::ToolchainAdapter cxxo;

  fleet::FleetOptions options;
  options.replicas = replicas;
  options.queue_capacity = 4096;
  // Fixed pools of 3: the size with the lower quiet-tenant flood p99 of the
  // two measured, 1 and 3 (docs/PERFORMANCE.md §6).
  options.workers_per_system = 3;
  options.max_attempts = 3;
  options.sleep_on_backoff = true;
  options.tenants["capped"] = service::TenantPolicy{1.0, 3.0, 0.0};
  options.store = remote;
  options.faults = &compile_faults;
  options.metrics = &metrics;
  // Chunk-dedup the hub over the same flaky remote: every rebuilt image's
  // chunk traffic rides the retry/breaker machinery with everything else.
  options.chunked_artifacts = true;
  fleet::Fleet fleet(hub, options);

  const std::vector<std::pair<const char*, const sysmodel::SystemProfile*>> isas = {
      {"x86", &sysmodel::SystemProfile::x86_cluster()},
      {"arm", &sysmodel::SystemProfile::aarch64_cluster()},
  };
  for (const auto& [fp, profile] : isas) {
    service::TargetSystem target;
    target.profile = profile;
    target.repo = &workloads::system_repo(*profile);
    if (!workloads::install_system_images(target.base_layout, *profile).ok()) {
      std::fprintf(stderr, "installing sysenv for %s failed\n", fp);
      return 1;
    }
    target.sysenv_tag = workloads::sysenv_tag(*profile);
    target.adapters = std::strcmp(fp, "arm") == 0
                          ? std::vector<const core::SystemAdapter*>{&cross, &libo, &cxxo}
                          : std::vector<const core::SystemAdapter*>{&libo, &cxxo};
    if (!fleet.add_system(fp, target).ok()) {
      std::fprintf(stderr, "add_system(%s) failed\n", fp);
      return 1;
    }
  }

  Ledger ledger;
  std::vector<WaveJob> quiet_wave;
  for (const auto& [fp, profile] : isas) quiet_wave.push_back({quiet_image, fp});
  std::vector<WaveJob> hot_wave;
  for (int b = 0; b < hot_burst; ++b) {
    for (const std::string& image : hot_images) {
      for (const auto& [fp, profile] : isas) hot_wave.push_back({image, fp});
    }
  }

  // ---- phase 1: warmup ------------------------------------------------------
  // Rebuild every (image, system) once so the compile cache is uniformly warm
  // before anything is measured — first-build cost must not skew either the
  // solo baseline or the flood.
  auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<WaveJob> warmup = hot_wave;
    warmup.resize(static_cast<std::size_t>(hot_apps) * isas.size());  // one burst copy
    for (const WaveJob& job : quiet_wave) warmup.push_back(job);
    run_wave(fleet, warmup, "warmup", service::Priority::normal, ledger, nullptr);
    std::lock_guard<std::mutex> lock(ledger.mutex);
    if (ledger.succeeded != ledger.total) {
      std::fprintf(stderr, "SOAK: warmup left %zu of %zu jobs unsucceeded\n",
                   ledger.total - ledger.succeeded, ledger.total);
      return 1;
    }
  }
  double warmup_ms = since_ms(t0);

  // The soak's steady-state weather: every 9th download and every 11th upload
  // fails (absorbed inside the RemoteStore's 3-attempt retry loop, so no
  // operation — and no ticket — may fail from it), plus a burst of registry
  // pull faults and one compile fault that the service-level retry must eat.
  net_faults.fail_every(store::kRemoteGetSite, 9);
  net_faults.fail_every(store::kRemotePutSite, 11);
  net_faults.fail_next(registry::kPullFaultSite, 2);
  compile_faults.fail_next(core::kCompileFaultSite, 1);

  // ---- phase 2: solo baseline ----------------------------------------------
  t0 = std::chrono::steady_clock::now();
  std::vector<double> solo_waits;
  for (int wave = 0; wave < quiet_waves || since_ms(t0) < solo_target_ms; ++wave) {
    run_wave(fleet, quiet_wave, "quiet", service::Priority::normal, ledger, &solo_waits);
    std::this_thread::sleep_for(quiet_think);
  }
  double solo_ms = since_ms(t0);
  double solo_p99 = percentile(solo_waits, 99);

  // ---- phase 3: hot-tenant flood -------------------------------------------
  // Outstanding hot jobs by construction: hot_clients x hot_wave vs the quiet
  // tenant's single wave — the >= 10x flood the fairness SLO is gated under.
  const double flood_factor_built =
      static_cast<double>(hot_clients) * static_cast<double>(hot_wave.size()) /
      static_cast<double>(quiet_wave.size());
  t0 = std::chrono::steady_clock::now();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hot_tickets{0};
  std::vector<std::vector<double>> hot_waits(static_cast<std::size_t>(hot_clients));
  std::vector<std::thread> hot_threads;
  for (int c = 0; c < hot_clients; ++c) {
    hot_threads.emplace_back([&, c] {
      while (!stop.load(std::memory_order_relaxed)) {
        run_wave(fleet, hot_wave, "hot", service::Priority::interactive, ledger,
                 &hot_waits[static_cast<std::size_t>(c)]);
        hot_tickets.fetch_add(hot_wave.size(), std::memory_order_relaxed);
      }
    });
  }
  std::vector<double> flood_waits;
  std::size_t quiet_flood_tickets = 0;
  for (int wave = 0; wave < quiet_waves || since_ms(t0) < flood_target_ms; ++wave) {
    run_wave(fleet, quiet_wave, "quiet", service::Priority::normal, ledger,
             &flood_waits);
    quiet_flood_tickets += quiet_wave.size();
    std::this_thread::sleep_for(quiet_think);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : hot_threads) thread.join();
  double flood_ms = since_ms(t0);
  double flood_p99 = percentile(flood_waits, 99);
  std::vector<double> hot_all;
  for (const auto& waits : hot_waits) hot_all.insert(hot_all.end(), waits.begin(), waits.end());
  double hot_p99 = percentile(hot_all, 99);
  const double flood_factor_seen =
      quiet_flood_tickets == 0
          ? 0.0
          : static_cast<double>(hot_tickets.load()) /
                static_cast<double>(quiet_flood_tickets);

  // ---- phase 4: quota burst -------------------------------------------------
  // Ten rapid submissions against a burst-3 bucket (per replica, behind the
  // round-robin balancer). The overflow must throttle; throttled tickets are
  // terminal immediately and count toward the zero-lost gate like any other.
  std::size_t throttled_before = ledger.throttled;
  {
    std::vector<fleet::FleetTicket> tickets;
    for (int i = 0; i < 10; ++i) {
      service::SubmitRequest request;
      request.name = quiet_image;
      request.tag = "1.0";
      request.system = "x86";
      request.tenant = "capped";
      auto ticket = fleet.submit(request);
      if (ticket.ok()) tickets.push_back(ticket.value());
    }
    for (const fleet::FleetTicket& ticket : tickets) ledger.settle(fleet.wait(ticket));
  }
  std::size_t quota_throttled = ledger.throttled - throttled_before;

  // ---- phase 5: breaker drill (quiescent) -----------------------------------
  // No tickets are in flight, so the endpoint outage exercises the breaker
  // without failing anyone: trip it open, prove fast-fail leaves the wire
  // untouched, heal the network, and recover through the half-open probe.
  const std::uint64_t opens_before = metrics.counter_value("store.remote.breaker.opens");
  net_faults.clear(store::kRemoteGetSite);
  net_faults.fail_every(store::kRemoteGetSite, 1);  // the endpoint goes dark
  for (int i = 0; i < remote_options.breaker_threshold; ++i) {
    if (remote->get("soak/sentinel").ok()) {
      std::fprintf(stderr, "SOAK: get succeeded through a dark endpoint\n");
      return 1;
    }
  }
  if (remote->breaker_state() != store::RemoteStore::BreakerState::open) {
    std::fprintf(stderr, "SOAK: breaker still closed after %d consecutive failures\n",
                 remote_options.breaker_threshold);
    return 1;
  }
  const std::uint64_t wire_calls = net_faults.calls(store::kRemoteGetSite);
  if (remote->get("soak/sentinel").ok()) {
    std::fprintf(stderr, "SOAK: open breaker admitted an operation\n");
    return 1;
  }
  if (net_faults.calls(store::kRemoteGetSite) != wire_calls) {
    std::fprintf(stderr, "SOAK: fast-fail still touched the network\n");
    return 1;
  }
  net_faults.clear(store::kRemoteGetSite);  // the network heals
  std::this_thread::sleep_for(remote_options.breaker_cooldown * 3);
  auto probed = remote->get("soak/sentinel");
  if (!probed.ok() || probed.value() != "ok") {
    std::fprintf(stderr, "SOAK: half-open probe failed after the network healed\n");
    return 1;
  }
  const bool breaker_recovered =
      remote->breaker_state() == store::RemoteStore::BreakerState::closed;
  const std::uint64_t breaker_opens =
      metrics.counter_value("store.remote.breaker.opens") - opens_before;
  const std::uint64_t breaker_closes = metrics.counter_value("store.remote.breaker.closes");
  const std::uint64_t breaker_fast_fails = remote->breaker_fast_fails();

  fleet.drain();

  // ---- report + gates -------------------------------------------------------
  const double fairness_base = std::max(solo_p99, floor_ms);
  const double fairness_ratio = flood_p99 / fairness_base;
  const std::uint64_t net_injected = net_faults.injected(store::kRemoteGetSite) +
                                     net_faults.injected(store::kRemotePutSite);

  std::printf("soak: %d hot clients x %zu-job waves vs quiet tenant, "
              "%zu replicas, both ISAs, flaky network\n",
              hot_clients, hot_wave.size(), replicas);
  std::printf("%-28s %10zu (%zu succeeded, %zu throttled, %zu failed, %zu lost)\n",
              "tickets", ledger.total, ledger.succeeded, ledger.throttled,
              ledger.failed, ledger.lost);
  std::printf("%-28s %10.1fx built, %.1fx observed\n", "hot:quiet flood factor",
              flood_factor_built, flood_factor_seen);
  std::printf("%-28s %10.2f ms (solo %.2f ms, floor %.2f ms) -> ratio %.2f\n",
              "quiet p99 queue wait", flood_p99, solo_p99, floor_ms, fairness_ratio);
  std::printf("%-28s %10.2f ms\n", "hot p99 queue wait", hot_p99);
  std::printf("%-28s %10llu opens, %llu closes, %llu fast fails, recovered=%s\n",
              "breaker",
              static_cast<unsigned long long>(breaker_opens),
              static_cast<unsigned long long>(breaker_closes),
              static_cast<unsigned long long>(breaker_fast_fails),
              breaker_recovered ? "yes" : "no");
  // Chunk-transfer economics: rebuilt images share almost everything with
  // what the hub already holds, so the wire cost per rebuild is the delta.
  // Rebuilds are the fleet's build grants; every other ticket coalesced or
  // reused a published result and pushed nothing.
  registry::Stats hub_stats = hub.stats();
  const std::uint64_t rebuilds = fleet.stats().leases_acquired;
  const std::uint64_t chunk_probes = hub_stats.chunks_moved + hub_stats.chunks_reused;
  const double chunk_hit_rate =
      chunk_probes == 0
          ? 0.0
          : static_cast<double>(hub_stats.chunks_reused) / static_cast<double>(chunk_probes);
  const std::uint64_t bytes_per_rebuild =
      rebuilds == 0 ? 0 : hub_stats.chunk_bytes_moved / rebuilds;
  std::printf("%-28s %9.1f%% (%llu moved, %llu reused)\n", "chunk hit rate",
              100.0 * chunk_hit_rate,
              static_cast<unsigned long long>(hub_stats.chunks_moved),
              static_cast<unsigned long long>(hub_stats.chunks_reused));
  std::printf("%-28s %10llu B (%llu rebuilds, %llu B/rebuild, dedup %.2fx)\n",
              "chunk bytes moved",
              static_cast<unsigned long long>(hub_stats.chunk_bytes_moved),
              static_cast<unsigned long long>(rebuilds),
              static_cast<unsigned long long>(bytes_per_rebuild),
              fleet.chunk_store() == nullptr ? 0.0
                                             : fleet.chunk_store()->dedup_ratio());
  std::printf("%-28s %10llu network faults injected, %llu store retries\n",
              "flakiness",
              static_cast<unsigned long long>(net_injected),
              static_cast<unsigned long long>(remote->retries()));
  std::printf("%-28s %10zu throttled of 10 capped submissions\n", "quota burst",
              quota_throttled);
  std::printf("%-28s warmup %.0f / solo %.0f / flood %.0f ms\n", "phase wall",
              warmup_ms, solo_ms, flood_ms);

  int gate_failures = 0;
  auto gate = [&gate_failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SOAK GATE: %s\n", what);
      ++gate_failures;
    }
  };
  gate(ledger.lost == 0, "lost tickets (non-terminal after wait)");
  gate(ledger.failed == 0, "failed tickets — the flaky network must be absorbed");
  gate(fairness_ratio <= 3.0,
       "fairness: quiet tenant flood p99 exceeds 3x its solo baseline");
  gate(flood_factor_built >= 10.0, "flood under-provisioned (< 10x quiet)");
  gate(quota_throttled >= 1, "quota burst never throttled");
  gate(breaker_opens >= 1 && breaker_recovered && breaker_closes >= 1,
       "breaker did not trip open and recover through half-open");
  gate(breaker_fast_fails >= 1, "open breaker never failed fast");
  gate(net_injected >= 1, "flaky network never actually fired");
  gate(chunk_probes > 0, "chunk dedup never saw a rebuild push");
  gate(hub_stats.chunks_reused > 0,
       "rebuild pushes never reused a chunk the hub already held");

  if (!json_path.empty()) {
    json::Object doc;
    doc.emplace_back("mode", json::Value(std::string(smoke ? "smoke" : "full")));
    doc.emplace_back("host_threads", json::Value(static_cast<std::uint64_t>(host_threads)));
    doc.emplace_back("heavy_rows_skipped", json::Value(heavy_skipped));
    if (heavy_skipped) {
      doc.emplace_back("provenance",
                       json::Value(std::string("full-scale rows downscaled: host has "
                                               "1 hardware thread")));
    }
    doc.emplace_back("duration_s", json::Value(round3(duration_s)));
    doc.emplace_back("replicas", json::Value(static_cast<std::uint64_t>(replicas)));
    doc.emplace_back("hot_clients", json::Value(hot_clients));
    doc.emplace_back("quiet_waves", json::Value(quiet_waves));
    doc.emplace_back("hot_wave_jobs", json::Value(static_cast<std::uint64_t>(hot_wave.size())));
    json::Object fairness;
    fairness.emplace_back("solo_p99_ms", json::Value(round3(solo_p99)));
    fairness.emplace_back("flood_p99_ms", json::Value(round3(flood_p99)));
    fairness.emplace_back("hot_flood_p99_ms", json::Value(round3(hot_p99)));
    fairness.emplace_back("floor_ms", json::Value(round3(floor_ms)));
    fairness.emplace_back("ratio", json::Value(round3(fairness_ratio)));
    fairness.emplace_back("limit", json::Value(3.0));
    doc.emplace_back("fairness", json::Value(std::move(fairness)));
    doc.emplace_back("flood_factor_built", json::Value(round3(flood_factor_built)));
    doc.emplace_back("flood_factor_observed", json::Value(round3(flood_factor_seen)));
    json::Object tickets_obj;
    tickets_obj.emplace_back("total", json::Value(static_cast<std::uint64_t>(ledger.total)));
    tickets_obj.emplace_back("succeeded",
                             json::Value(static_cast<std::uint64_t>(ledger.succeeded)));
    tickets_obj.emplace_back("throttled",
                             json::Value(static_cast<std::uint64_t>(ledger.throttled)));
    tickets_obj.emplace_back("failed", json::Value(static_cast<std::uint64_t>(ledger.failed)));
    tickets_obj.emplace_back("lost", json::Value(static_cast<std::uint64_t>(ledger.lost)));
    doc.emplace_back("tickets", json::Value(std::move(tickets_obj)));
    json::Object breaker_obj;
    breaker_obj.emplace_back("opens", json::Value(breaker_opens));
    breaker_obj.emplace_back("closes", json::Value(breaker_closes));
    breaker_obj.emplace_back("fast_fails", json::Value(breaker_fast_fails));
    breaker_obj.emplace_back("recovered", json::Value(breaker_recovered));
    doc.emplace_back("breaker", json::Value(std::move(breaker_obj)));
    json::Object faults_obj;
    faults_obj.emplace_back("network_injected", json::Value(net_injected));
    faults_obj.emplace_back("store_retries", json::Value(remote->retries()));
    faults_obj.emplace_back("service_retries",
                            json::Value(static_cast<std::uint64_t>(
                                metrics.counter_value("service.retries"))));
    doc.emplace_back("faults", json::Value(std::move(faults_obj)));
    doc.emplace_back("quota_throttled",
                     json::Value(static_cast<std::uint64_t>(quota_throttled)));
    json::Object transfer_obj;
    transfer_obj.emplace_back("chunk_hit_rate_pct",
                              json::Value(round3(100.0 * chunk_hit_rate)));
    transfer_obj.emplace_back("bytes_moved", json::Value(hub_stats.chunk_bytes_moved));
    transfer_obj.emplace_back("bytes_deduped", json::Value(hub_stats.chunk_bytes_deduped));
    transfer_obj.emplace_back("rebuilds", json::Value(rebuilds));
    transfer_obj.emplace_back("bytes_moved_per_rebuild", json::Value(bytes_per_rebuild));
    transfer_obj.emplace_back(
        "dedup_ratio",
        json::Value(round3(fleet.chunk_store() == nullptr
                               ? 0.0
                               : fleet.chunk_store()->dedup_ratio())));
    doc.emplace_back("transfer", json::Value(std::move(transfer_obj)));
    json::Object wall;
    wall.emplace_back("warmup_ms", json::Value(round3(warmup_ms)));
    wall.emplace_back("solo_ms", json::Value(round3(solo_ms)));
    wall.emplace_back("flood_ms", json::Value(round3(flood_ms)));
    doc.emplace_back("phase_wall", json::Value(std::move(wall)));
    if (write_file(json_path, json::serialize_pretty(json::Value(std::move(doc)))) != 0) {
      return 1;
    }
    std::printf("results written to %s\n", json_path.c_str());
  }

  if (gate_failures != 0) {
    std::fprintf(stderr, "SOAK: %d gate(s) failed\n", gate_failures);
    return 1;
  }
  std::printf("all SLO gates passed\n");
  return 0;
}
