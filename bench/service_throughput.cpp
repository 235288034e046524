// Load generator for the multi-tenant rebuild service: N client threads
// submit rebuild requests for a mix of images across M simulated target
// systems and the run reports throughput, p50/p99 service latency, the
// request-coalescing rate, retry counts under injected transient faults,
// and a drain-under-load pass.
//
// Usage: service_throughput [--smoke] [--clients N] [--systems M] [--requests R]
//                           [--trace PATH] [--json PATH]
//   --smoke   small deterministic run with hard assertions (CI-friendly):
//             duplicate submissions must coalesce, injected transient faults
//             must recover via retry with zero failed tickets, a drain
//             during load must leave every ticket in a terminal state, and a
//             finished ticket must keep at most 0.3 KiB of heap (skipped
//             under a sanitizer, whose allocator malloc's accounting cannot
//             see).
//   --trace PATH   write the load run's Chrome trace JSON (service.job spans
//                  with per-attempt pull/rebuild/push children) to PATH.
//   --json PATH    write machine-readable results to PATH.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/store.hpp"
#include "support/fault.hpp"
#include "transfer/chunkstore.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

using namespace comt;

namespace {

int publish(registry::Registry& hub, const char* app_name, const std::string& name) {
  const workloads::AppSpec* app = workloads::find_app(app_name);
  if (app == nullptr) {
    std::fprintf(stderr, "%s missing from corpus\n", app_name);
    return 1;
  }
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(*app);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare %s: %s\n", app_name, prepared.error().to_string().c_str());
    return 1;
  }
  auto pushed = hub.push(world.layout(), prepared.value().extended_tag, name, "1.0");
  if (!pushed.ok()) {
    std::fprintf(stderr, "push %s: %s\n", app_name, pushed.error().to_string().c_str());
    return 1;
  }
  return 0;
}

int add_systems(service::RebuildService& svc, int count, std::vector<std::string>& names) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  for (int i = 0; i < count; ++i) {
    service::TargetSystem target;
    target.profile = &system;
    target.repo = &workloads::system_repo(system);
    if (!workloads::install_system_images(target.base_layout, system).ok()) {
      std::fprintf(stderr, "installing sysenv for site%d failed\n", i);
      return 1;
    }
    target.sysenv_tag = workloads::sysenv_tag(system);
    std::string fp = "site" + std::to_string(i);
    if (!svc.add_system(fp, target).ok()) {
      std::fprintf(stderr, "add_system(%s) failed\n", fp.c_str());
      return 1;
    }
    names.push_back(std::move(fp));
  }
  return 0;
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

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif

/// Ceiling on what a finished ticket may keep: its share of the job's
/// outcome (state, result, output, trace), not the job.
constexpr double kMaxTicketRecordBytes = 0.3 * 1024;

/// Heap bytes in use, over every malloc arena.
std::size_t heap_in_use() {
  malloc_trim(0);
  return mallinfo2().uordblks;
}

double service_ms(const service::JobTrace& trace) {
  return trace.queue_ms + trace.pull_ms + trace.rebuild_ms + trace.push_ms;
}

double round3(double value) { return std::round(value * 1000.0) / 1000.0; }

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
  int clients = 8;
  int systems = 4;
  int requests = 8;  // per client
  std::string trace_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--systems") == 0 && i + 1 < argc) {
      systems = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (smoke) {
    clients = 4;
    systems = 2;
    requests = 4;
  }
  const std::vector<const char*> apps =
      smoke ? std::vector<const char*>{"minimd", "comd"}
            : std::vector<const char*>{"minimd", "comd", "hpccg"};

  registry::Registry hub;
  support::FaultInjector hub_faults;
  support::FaultInjector compile_faults;
  hub.set_fault_injector(&hub_faults);
  // Chunk-level dedup on the hub: every rebuilt image a worker pushes shares
  // its unchanged layers' chunks with the generic image already there, so
  // the wire cost of a rebuild is the recompiled delta, not the whole image.
  hub.enable_chunk_dedup(
      std::make_shared<transfer::ChunkStore>(std::make_shared<store::MemStore>()));
  std::vector<std::string> images;
  for (const char* app : apps) {
    std::string name = std::string("hub/") + app;
    if (publish(hub, app, name) != 0) return 1;
    images.push_back(std::move(name));
  }
  // Baseline the chunk counters after the seed publishes so the load run's
  // numbers cover only the rebuild pushes.
  const transfer::ChunkStore& chunks = *hub.chunk_store();
  const registry::Stats seed_stats = hub.stats();

  service::ServiceOptions options;
  options.workers_per_system = 2;
  options.queue_capacity =
      static_cast<std::size_t>(systems) * images.size() * 2 +
      static_cast<std::size_t>(clients) * static_cast<std::size_t>(requests);
  options.faults = &compile_faults;
  // The load run is fully observed: every service.job span carries its
  // per-attempt pull/rebuild/push children and the hub's transfers land in
  // the same registry as the service counters.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  options.tracer = &tracer;
  options.metrics = &metrics;
  hub.set_observer(&tracer, &metrics);
  service::RebuildService svc(hub, options);
  std::vector<std::string> sites;
  if (add_systems(svc, systems, sites) != 0) return 1;

  // Transient faults: the first two registry pulls and the first compile job
  // fail; the affected jobs must recover through retry with backoff.
  hub_faults.fail_next(registry::kPullFaultSite, 2);
  compile_faults.fail_next(core::kCompileFaultSite, 1);

  // Hold starts while the clients race submissions so duplicate (image,
  // system) requests deterministically coalesce onto queued jobs.
  svc.pause();
  std::vector<std::vector<service::Ticket>> per_client(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < requests; ++r) {
        int pick = c * requests + r;
        service::SubmitRequest request;
        request.name = images[static_cast<std::size_t>(pick) % images.size()];
        request.tag = "1.0";
        request.system = sites[static_cast<std::size_t>(pick / 2) % sites.size()];
        request.priority = (pick % 3 == 0) ? service::Priority::interactive
                                           : service::Priority::normal;
        request.tenant = "team" + std::to_string(c % 3);  // a small tenant mix
        auto ticket = svc.submit(request);
        if (ticket.ok()) per_client[static_cast<std::size_t>(c)].push_back(ticket.value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  auto start = std::chrono::steady_clock::now();
  svc.resume();

  std::vector<double> latencies;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t other = 0;
  std::size_t coalesced_tickets = 0;
  for (const auto& tickets : per_client) {
    for (service::Ticket ticket : tickets) {
      auto done = svc.wait(ticket);
      if (!done.ok()) return 1;
      switch (done.value().state) {
        case service::JobState::succeeded: ++succeeded; break;
        case service::JobState::failed: ++failed; break;
        default: ++other; break;
      }
      if (done.value().trace.coalesced) ++coalesced_tickets;
      latencies.push_back(service_ms(done.value().trace));
    }
  }
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  service::ServiceStats stats = svc.stats();
  double coalesce_rate =
      stats.submitted == 0
          ? 0.0
          : static_cast<double>(stats.coalesced) / static_cast<double>(stats.submitted);
  std::printf("rebuild service: %d clients x %d requests over %zu images x %d systems\n",
              clients, requests, images.size(), systems);
  std::printf("%-24s %10zu\n", "tickets", stats.submitted);
  std::printf("%-24s %10zu\n", "distinct jobs", stats.admitted);
  std::printf("%-24s %9.0f%%\n", "coalescing rate", 100.0 * coalesce_rate);
  std::printf("%-24s %10.2f\n", "wall ms", wall_ms);
  std::printf("%-24s %10.1f\n", "jobs/s",
              wall_ms == 0 ? 0.0 : 1000.0 * static_cast<double>(stats.admitted) / wall_ms);
  std::printf("%-24s %10.2f\n", "p50 service ms", percentile(latencies, 50));
  std::printf("%-24s %10.2f\n", "p99 service ms", percentile(latencies, 99));
  std::printf("%-24s %10zu\n", "retries", stats.retries);
  std::printf("%-24s %10zu / %zu\n", "compile cache hits", stats.compile_cache_hits,
              stats.compile_cache_hits + stats.compile_cache_misses);
  std::printf("%-24s %10zu succeeded, %zu failed, %zu other\n", "final states",
              succeeded, failed, other);
  // Chunk-transfer economics of the load run: what the rebuild pushes moved
  // over the wire vs what dedup against the generic images saved. Hit rate
  // counts chunks reused either way — whole-blob dedup or chunk-level dedup.
  registry::Stats hub_stats = hub.stats();
  std::uint64_t run_moved = hub_stats.chunk_bytes_moved - seed_stats.chunk_bytes_moved;
  std::uint64_t run_hits = hub_stats.chunks_reused - seed_stats.chunks_reused;
  std::uint64_t run_misses = hub_stats.chunks_moved - seed_stats.chunks_moved;
  double chunk_hit_rate = run_hits + run_misses == 0
                              ? 0.0
                              : static_cast<double>(run_hits) /
                                    static_cast<double>(run_hits + run_misses);
  double moved_per_rebuild =
      stats.admitted == 0 ? 0.0
                          : static_cast<double>(run_moved) /
                                static_cast<double>(stats.admitted);
  std::printf("%-24s %9.1f%%\n", "chunk hit rate", 100.0 * chunk_hit_rate);
  std::printf("%-24s %10.2f MiB (%.2f MiB/rebuild)\n", "chunk bytes moved",
              workloads::to_sim_mib(run_moved),
              workloads::to_sim_mib(static_cast<std::uint64_t>(moved_per_rebuild)));
  std::printf("%-24s %9.2fx\n", "dedup ratio", chunks.dedup_ratio());
  for (const auto& [tenant, slice] : stats.tenants) {
    std::printf("  tenant %-14s %6zu submitted, %zu admitted, %zu shed, %zu "
                "throttled, p99 queue-wait %.2f ms\n",
                tenant.c_str(), slice.submitted, slice.admitted, slice.shed,
                slice.throttled, slice.p99_queue_wait_ms);
  }

  // The exported trace must re-parse through src/json and hold one
  // service.job span per distinct admitted job.
  const std::string trace_json = tracer.chrome_trace_json();
  auto parsed_trace = json::parse(trace_json);
  if (!parsed_trace.ok()) {
    std::fprintf(stderr, "TRACE: chrome trace does not re-parse: %s\n",
                 parsed_trace.error().to_string().c_str());
    return 1;
  }
  std::size_t job_spans = 0;
  const json::Value* events = parsed_trace.value().find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "TRACE: missing traceEvents array\n");
    return 1;
  }
  for (const json::Value& event : events->as_array()) {
    if (event.get_string("name") == "service.job") ++job_spans;
  }
  std::printf("%-24s %10zu (of %zu trace events)\n", "service.job spans", job_spans,
              events->as_array().size());
  if (!trace_path.empty()) {
    if (write_file(trace_path, trace_json) != 0) return 1;
    std::printf("trace written to %s\n", trace_path.c_str());
  }

  if (smoke) {
    if (job_spans != stats.admitted) {
      std::fprintf(stderr, "SMOKE: %zu service.job spans but %zu admitted jobs\n",
                   job_spans, stats.admitted);
      return 1;
    }
    if (stats.coalesced == 0) {
      std::fprintf(stderr, "SMOKE: expected duplicate submissions to coalesce\n");
      return 1;
    }
    if (failed != 0 || other != 0) {
      std::fprintf(stderr, "SMOKE: %zu failed / %zu non-succeeded tickets despite "
                           "retryable faults\n", failed, other);
      return 1;
    }
    if (stats.retries == 0) {
      std::fprintf(stderr, "SMOKE: injected transient faults never triggered a retry\n");
      return 1;
    }
    if (run_hits == 0) {
      std::fprintf(stderr, "SMOKE: rebuild pushes never dedup-hit the generic "
                           "images' chunks\n");
      return 1;
    }
    std::uint64_t tenant_submitted = 0;
    for (const auto& [tenant, slice] : stats.tenants) tenant_submitted += slice.submitted;
    if (tenant_submitted != stats.submitted) {
      std::fprintf(stderr, "SMOKE: per-tenant submitted (%llu) != total (%zu)\n",
                   static_cast<unsigned long long>(tenant_submitted), stats.submitted);
      return 1;
    }
  }

  // ---- drain under load ----------------------------------------------------
  // A fresh service takes the same request mix, then drains mid-flight: every
  // in-flight job must complete, every still-queued job must fail as drained,
  // and no ticket may be left in a non-terminal state.
  service::ServiceOptions drain_options;
  drain_options.workers_per_system = 1;
  drain_options.queue_capacity = options.queue_capacity;
  service::RebuildService drain_svc(hub, drain_options);
  std::vector<std::string> drain_sites;
  if (add_systems(drain_svc, systems, drain_sites) != 0) return 1;
  std::vector<service::Ticket> drain_tickets;
  for (std::size_t i = 0; i < images.size() * drain_sites.size(); ++i) {
    service::SubmitRequest request;
    request.name = images[i % images.size()];
    request.tag = "1.0";
    request.system = drain_sites[i / images.size()];
    auto ticket = drain_svc.submit(request);
    if (ticket.ok()) drain_tickets.push_back(ticket.value());
  }
  while (drain_svc.running() == 0 && drain_svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  drain_svc.drain();

  std::size_t drain_succeeded = 0;
  std::size_t drain_drained = 0;
  for (service::Ticket ticket : drain_tickets) {
    auto done = drain_svc.status(ticket);
    if (!done.ok() || !service::is_terminal(done.value().state)) {
      std::fprintf(stderr, "drain left ticket %llu non-terminal\n",
                   static_cast<unsigned long long>(ticket));
      return 1;
    }
    if (done.value().state == service::JobState::succeeded) {
      ++drain_succeeded;
      // A completed job's output must actually be pullable from the hub.
      oci::Layout out;
      if (!hub.pull(done.value().output.substr(0, done.value().output.find(':')),
                    done.value().output.substr(done.value().output.find(':') + 1), out,
                    "check")
               .ok()) {
        std::fprintf(stderr, "drained service pushed an unpullable output: %s\n",
                     done.value().output.c_str());
        return 1;
      }
    } else if (done.value().state == service::JobState::drained) {
      ++drain_drained;
    } else {
      std::fprintf(stderr, "unexpected terminal state under drain: %s\n",
                   service::to_string(done.value().state));
      return 1;
    }
  }
  std::printf("\ndrain under load: %zu jobs -> %zu completed in flight, %zu drained\n",
              drain_tickets.size(), drain_succeeded, drain_drained);
  if (smoke && drain_succeeded + drain_drained != drain_tickets.size()) {
    std::fprintf(stderr, "SMOKE: drain accounting mismatch\n");
    return 1;
  }

  // ---- what a finished ticket keeps -----------------------------------------
  // Every ticket ever issued keeps answering status(), so a long-lived
  // service grows by what each finished ticket retains. Sequential tickets
  // for one image on a fresh single-worker service: the growth of the heap in
  // use over the run, per ticket. The hub's observer is detached first — a
  // tracer keeps every span it is handed.
  double record_bytes = 0;
  if (kSanitizedAllocator) {
    std::printf("\nticket record: SKIP (a sanitizer's allocator hides malloc's accounting)\n");
  } else {
    hub.set_observer(nullptr, nullptr);
    service::ServiceOptions record_options;
    record_options.workers_per_system = 1;
    service::RebuildService record_svc(hub, record_options);
    std::vector<std::string> record_sites;
    if (add_systems(record_svc, 1, record_sites) != 0) return 1;
    service::SubmitRequest request;
    request.name = images.front();
    request.tag = "1.0";
    request.system = record_sites.front();
    auto run_tickets = [&](int count) {
      for (int i = 0; i < count; ++i) {
        auto ticket = record_svc.submit(request);
        if (!ticket.ok()) return false;
        auto done = record_svc.wait(ticket.value());
        if (!done.ok() || done.value().state != service::JobState::succeeded) return false;
      }
      return true;
    };
    // Warm-up: the compile cache, the metrics instruments and the kept
    // layer trees reach their steady state before the baseline.
    constexpr int kRecordTickets = 5000;
    if (!run_tickets(20)) {
      std::fprintf(stderr, "ticket record: warm-up ticket did not succeed\n");
      return 1;
    }
    const std::size_t before = heap_in_use();
    if (!run_tickets(kRecordTickets)) {
      std::fprintf(stderr, "ticket record: a measured ticket did not succeed\n");
      return 1;
    }
    const std::size_t after = heap_in_use();
    record_bytes = after > before
                       ? static_cast<double>(after - before) / kRecordTickets
                       : 0.0;
    std::printf("\nticket record: %.0f B of heap kept per finished ticket (%d tickets, "
                "limit %.0f B)\n",
                record_bytes, kRecordTickets, kMaxTicketRecordBytes);
    if (smoke && record_bytes > kMaxTicketRecordBytes) {
      std::fprintf(stderr, "SMOKE: a finished ticket keeps %.0f B, over %.0f B\n",
                   record_bytes, kMaxTicketRecordBytes);
      return 1;
    }
  }

  if (!json_path.empty()) {
    json::Object doc;
    doc.emplace_back("clients", json::Value(clients));
    doc.emplace_back("systems", json::Value(systems));
    doc.emplace_back("requests_per_client", json::Value(requests));
    doc.emplace_back("images", json::Value(static_cast<std::uint64_t>(images.size())));
    doc.emplace_back("tickets", json::Value(static_cast<std::uint64_t>(stats.submitted)));
    doc.emplace_back("distinct_jobs",
                     json::Value(static_cast<std::uint64_t>(stats.admitted)));
    doc.emplace_back("coalesce_rate_pct", json::Value(round3(100.0 * coalesce_rate)));
    doc.emplace_back("wall_ms", json::Value(round3(wall_ms)));
    doc.emplace_back("jobs_per_s",
                     json::Value(round3(wall_ms == 0 ? 0.0
                                                     : 1000.0 *
                                                           static_cast<double>(stats.admitted) /
                                                           wall_ms)));
    doc.emplace_back("p50_service_ms", json::Value(round3(percentile(latencies, 50))));
    doc.emplace_back("p99_service_ms", json::Value(round3(percentile(latencies, 99))));
    doc.emplace_back("retries", json::Value(static_cast<std::uint64_t>(stats.retries)));
    json::Object transfer_obj;
    transfer_obj.emplace_back("chunk_hit_rate_pct",
                              json::Value(round3(100.0 * chunk_hit_rate)));
    transfer_obj.emplace_back("bytes_moved", json::Value(run_moved));
    transfer_obj.emplace_back(
        "mib_moved_per_rebuild",
        json::Value(round3(workloads::to_sim_mib(
            static_cast<std::uint64_t>(moved_per_rebuild)))));
    transfer_obj.emplace_back("dedup_ratio", json::Value(round3(chunks.dedup_ratio())));
    doc.emplace_back("transfer", json::Value(std::move(transfer_obj)));
    json::Object tenants_obj;
    for (const auto& [tenant, slice] : stats.tenants) {
      json::Object entry;
      entry.emplace_back("submitted", json::Value(slice.submitted));
      entry.emplace_back("admitted", json::Value(slice.admitted));
      entry.emplace_back("shed", json::Value(slice.shed));
      entry.emplace_back("throttled", json::Value(slice.throttled));
      entry.emplace_back("p99_queue_wait_ms", json::Value(round3(slice.p99_queue_wait_ms)));
      tenants_obj.emplace_back(tenant, json::Value(std::move(entry)));
    }
    doc.emplace_back("tenants", json::Value(std::move(tenants_obj)));
    doc.emplace_back("trace_events",
                     json::Value(static_cast<std::uint64_t>(events->as_array().size())));
    doc.emplace_back("service_job_spans", json::Value(static_cast<std::uint64_t>(job_spans)));
    json::Object drain_obj;
    drain_obj.emplace_back("jobs", json::Value(static_cast<std::uint64_t>(drain_tickets.size())));
    drain_obj.emplace_back("completed_in_flight",
                           json::Value(static_cast<std::uint64_t>(drain_succeeded)));
    drain_obj.emplace_back("drained", json::Value(static_cast<std::uint64_t>(drain_drained)));
    doc.emplace_back("drain", json::Value(std::move(drain_obj)));
    if (!kSanitizedAllocator) {
      doc.emplace_back("ticket_record_bytes", json::Value(round3(record_bytes)));
    }
    if (write_file(json_path, json::serialize_pretty(json::Value(std::move(doc)))) != 0) {
      return 1;
    }
    std::printf("results written to %s\n", json_path.c_str());
  }
  return 0;
}
