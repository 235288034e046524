// Reproduces Table 3: the size of each application's original image on both
// architectures and the size of the coMtainer cache layer added to it.
// Sizes are simulated MiB (kSimBytesPerMiB real bytes = 1 reported MiB; the
// 4096:1 scale preserves every ratio the paper discusses).
//
// The second section measures image *distribution* with the transfer
// subsystem: each app's generic image is pushed to a chunk-dedup registry,
// then the optimized child is delta-pushed against it — what crosses the
// wire is only the chunks the recompile actually changed. Reported per app:
// the bytes a delta push moved, the fraction of the full image that is, and
// the chunk store's dedup ratio (logical bytes / stored framed bytes).
//
// Usage: table3_image_size [--smoke] [--json PATH]
//   --smoke   hard-asserts the distribution gates (CI): per-app dedup ratio
//             > 1.0, delta push moves < 40% of full-image bytes with an
//             overall dedup ratio > 2.5x, and a torn chunk upload is always
//             detected (reassembly reads corrupt, never silently wrong) and
//             heals to bit-identical bytes after repair.
//   --json PATH   write machine-readable results (with hardware provenance).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "registry/registry.hpp"
#include "store/remote.hpp"
#include "store/store.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"
#include "transfer/chunkstore.hpp"
#include "transfer/delta.hpp"
#include "workloads/harness.hpp"

using namespace comt;

namespace {

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
      while (!model.empty() && (model.back() == '\n' || model.back() == '\r')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(info);
  return model;
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

/// One app's distribution measurements.
struct DeltaRow {
  std::string app;
  double image_mib = 0;        ///< optimized image, logical
  double stored_mib = 0;       ///< framed unique chunks (generic + optimized)
  double logical_mib = 0;      ///< what whole-blob CAS would hold
  double moved_mib = 0;        ///< wire bytes the delta push moved
  double moved_pct = 0;        ///< moved / image
  double deduped_mib = 0;      ///< raw bytes reused chunks covered
  double dedup_ratio = 0;      ///< chunk store logical / stored
  std::size_t chunks_moved = 0;
  std::size_t chunks_reused = 0;
  bool full_push = false;
};

/// Tears a chunk upload mid-blob and proves the failure mode: the torn chunk
/// reads back corrupt (never silently wrong), a re-push plus repair_chunk
/// heals it, and the reassembled blob is bit-identical. Returns 0 on pass.
int torn_transfer_check(const std::string& blob) {
  auto remote = std::make_shared<store::RemoteStore>(std::make_shared<store::MemStore>());
  support::FaultInjector faults;
  remote->set_fault_injector(&faults);
  transfer::ChunkStore destination(remote);

  auto manifest = transfer::build_manifest(blob, destination.params());
  if (!manifest.ok()) {
    std::fprintf(stderr, "torn-check: build_manifest failed\n");
    return 1;
  }

  faults.tear_next(std::string(store::kRemotePutSite), 0.5);
  bool crashed = false;
  try {
    (void)transfer::push_delta(blob, {}, destination);
  } catch (const support::CrashInjected&) {
    crashed = true;
  }
  if (!crashed) {
    std::fprintf(stderr, "torn-check: injected tear did not fire\n");
    return 1;
  }

  // Detection: every chunk the torn upload left behind either decodes and
  // digest-verifies or reads back Errc::corrupt.
  bool saw_corrupt = false;
  for (const transfer::ChunkRef& chunk : manifest.value().chunks) {
    if (!destination.contains_chunk(chunk.digest)) continue;
    auto raw = destination.get_chunk(chunk.digest);
    if (raw.ok()) continue;
    if (raw.error().code != Errc::corrupt) {
      std::fprintf(stderr, "torn-check: unexpected error %s\n",
                   raw.error().to_string().c_str());
      return 1;
    }
    saw_corrupt = true;
  }
  if (!saw_corrupt) {
    std::fprintf(stderr, "torn-check: tear kept no detectable damage\n");
    return 1;
  }

  // Heal: re-push moves the missing chunks; the torn one the dedup probe
  // still trusts is overwritten with repair_chunk (the fsck path).
  auto report = transfer::push_delta(blob, {}, destination);
  if (!report.ok()) {
    std::fprintf(stderr, "torn-check: re-push failed\n");
    return 1;
  }
  for (const transfer::ChunkRef& chunk : manifest.value().chunks) {
    if (destination.get_chunk(chunk.digest).ok()) continue;
    auto healed = destination.repair_chunk(
        chunk.digest, std::string_view(blob).substr(chunk.offset, chunk.size));
    if (!healed.ok()) {
      std::fprintf(stderr, "torn-check: repair_chunk failed\n");
      return 1;
    }
  }
  auto back = destination.get_blob(report.value().blob_digest);
  if (!back.ok() || back.value() != blob) {
    std::fprintf(stderr, "torn-check: healed blob is not bit-identical\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: table3_image_size [--smoke] [--json PATH]\n");
      return 2;
    }
  }

  std::printf("Table 3 — size (in MiB) of original images and cache layers\n\n");

  std::map<std::string, workloads::PreparedApp> x86, arm;
  workloads::Evaluation x86_world(sysmodel::SystemProfile::x86_cluster());
  workloads::Evaluation arm_world(sysmodel::SystemProfile::aarch64_cluster());
  for (const workloads::AppSpec& app : workloads::corpus()) {
    auto a = x86_world.prepare(app);
    auto b = arm_world.prepare(app);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "prepare(%s) failed\n", app.name.c_str());
      return 1;
    }
    x86[app.name] = a.value();
    arm[app.name] = b.value();
  }

  std::printf("%-10s %14s %14s %10s %10s\n", "app", "image(x86-64)", "image(arm64)",
              "cache", "cache/img");
  double max_ratio_x86 = 0;
  for (const workloads::AppSpec& app : workloads::corpus()) {
    const auto& px = x86[app.name];
    const auto& pa = arm[app.name];
    double image_x86 = workloads::to_sim_mib(px.image_bytes);
    double image_arm = workloads::to_sim_mib(pa.image_bytes);
    double cache = workloads::to_sim_mib(px.cache_layer_bytes);
    double ratio = cache / image_x86 * 100.0;
    max_ratio_x86 = std::max(max_ratio_x86, ratio);
    std::printf("%-10s %13.2f %14.2f %9.2f %9.1f%%\n", app.name.c_str(), image_x86,
                image_arm, cache, ratio);
  }
  std::printf("\n  max cache/image ratio on x86-64: %.1f%% (paper: max 7.1%% on "
              "x86-64, 11.3%% on AArch64)\n",
              max_ratio_x86);
  std::printf("  paper reference rows: comd 170.36/94.87/0.75, lammps "
              "203.30/127.23/14.42, openmx 440.97/359.14/23.99 MiB\n");

  // ---- distribution: chunk dedup + delta push -------------------------------
  // Per app: a fresh chunk-dedup registry receives the generic image whole,
  // then the optimized child rides a delta push naming the generic parent as
  // base. moved% is the acceptance number: what fraction of the optimized
  // image's bytes actually crossed the wire.
  std::printf("\nImage distribution — delta push of optimized vs generic parent\n\n");
  std::printf("%-10s %11s %11s %8s %11s %11s %7s %7s %7s\n", "app", "image MiB",
              "moved MiB", "moved%", "dedup MiB", "stored MiB", "ratio", "chunks",
              "reused");

  std::vector<DeltaRow> rows;
  std::string torn_probe_blob;  // largest optimized layer, for the torn check
  for (const workloads::AppSpec& app : workloads::corpus()) {
    auto optimized = x86_world.optimize(app, x86[app.name], app.inputs.front(), 16);
    if (!optimized.ok()) {
      std::fprintf(stderr, "optimize(%s): %s\n", app.name.c_str(),
                   optimized.error().to_string().c_str());
      return 1;
    }

    registry::Registry hub;
    hub.enable_chunk_dedup(
        std::make_shared<transfer::ChunkStore>(std::make_shared<store::MemStore>()));
    std::string name = "org/" + app.name;
    auto pushed = hub.push(x86_world.layout(), x86[app.name].dist_tag, name, "generic");
    if (!pushed.ok()) {
      std::fprintf(stderr, "push(%s generic): %s\n", app.name.c_str(),
                   pushed.error().to_string().c_str());
      return 1;
    }
    registry::ImageDeltaReport report;
    auto delta = hub.push(x86_world.layout(), optimized.value(), name, "optimized",
                          {.bases = {name + ":generic"}, .report = &report});
    if (!delta.ok()) {
      std::fprintf(stderr, "push(%s optimized): %s\n", app.name.c_str(),
                   delta.error().to_string().c_str());
      return 1;
    }

    DeltaRow row;
    row.app = app.name;
    row.image_mib = workloads::to_sim_mib(report.image_bytes);
    row.moved_mib = workloads::to_sim_mib(report.bytes_moved);
    row.moved_pct = report.moved_fraction() * 100.0;
    row.deduped_mib = workloads::to_sim_mib(report.bytes_deduped);
    row.stored_mib = workloads::to_sim_mib(hub.chunk_store()->stored_chunk_bytes());
    row.logical_mib = workloads::to_sim_mib(hub.chunk_store()->logical_bytes());
    row.dedup_ratio = hub.chunk_store()->dedup_ratio();
    row.chunks_moved = report.chunks_moved;
    row.chunks_reused = report.chunks_reused;
    row.full_push = report.full_push;
    rows.push_back(row);
    std::printf("%-10s %11.2f %11.2f %7.1f%% %11.2f %11.2f %7.2f %7zu %7zu\n",
                row.app.c_str(), row.image_mib, row.moved_mib, row.moved_pct,
                row.deduped_mib, row.stored_mib, row.dedup_ratio, row.chunks_moved,
                row.chunks_reused);

    if (torn_probe_blob.empty()) {
      auto image = x86_world.layout().find_image(optimized.value());
      if (image.ok()) {
        const oci::Descriptor* biggest = nullptr;
        for (const oci::Descriptor& layer : image.value().manifest.layers) {
          if (biggest == nullptr || layer.size > biggest->size) biggest = &layer;
        }
        if (biggest != nullptr) {
          auto bytes = x86_world.layout().get_blob(biggest->digest);
          if (bytes.ok()) torn_probe_blob = std::move(bytes).value();
        }
      }
    }
  }

  double worst_moved_pct = 0, min_ratio = 1e9, sum_image = 0, sum_moved = 0;
  bool any_full_push = false;
  for (const DeltaRow& row : rows) {
    worst_moved_pct = std::max(worst_moved_pct, row.moved_pct);
    min_ratio = std::min(min_ratio, row.dedup_ratio);
    sum_image += row.image_mib;
    sum_moved += row.moved_mib;
    any_full_push |= row.full_push;
  }
  double overall_moved_pct = sum_image == 0 ? 0 : sum_moved / sum_image * 100.0;
  std::printf("\n  worst moved%%: %.1f%%  overall moved%%: %.1f%%  min dedup ratio: "
              "%.2fx\n",
              worst_moved_pct, overall_moved_pct, min_ratio);

  int torn_rc = -1;
  if (!torn_probe_blob.empty()) {
    torn_rc = torn_transfer_check(torn_probe_blob);
    std::printf("  torn-transfer check: %s (detected as corrupt, healed "
                "bit-identical)\n",
                torn_rc == 0 ? "pass" : "FAIL");
  }

  int rc = 0;
  if (smoke) {
    // CI gates: dedup must actually pay (> 1.0 per app), and the acceptance
    // numbers — a delta push moves < 40% of full-image bytes at > 2.5x dedup.
    if (any_full_push) {
      std::fprintf(stderr, "SMOKE FAIL: a delta push degraded to full push\n");
      rc = 1;
    }
    if (min_ratio <= 1.0) {
      std::fprintf(stderr, "SMOKE FAIL: dedup ratio %.2f <= 1.0\n", min_ratio);
      rc = 1;
    }
    if (worst_moved_pct >= 40.0) {
      std::fprintf(stderr, "SMOKE FAIL: delta push moved %.1f%% >= 40%%\n",
                   worst_moved_pct);
      rc = 1;
    }
    if (min_ratio <= 2.5) {
      std::fprintf(stderr, "SMOKE FAIL: dedup ratio %.2f <= 2.5\n", min_ratio);
      rc = 1;
    }
    if (torn_rc != 0) {
      std::fprintf(stderr, "SMOKE FAIL: torn-transfer check did not pass\n");
      rc = 1;
    }
    if (rc == 0) std::printf("\nSMOKE OK\n");
  }

  if (!json_path.empty()) {
    json::Object doc;
    doc.emplace_back("bench", json::Value(std::string("table3_image_size")));
    doc.emplace_back("mode", json::Value(std::string(smoke ? "smoke" : "full")));
    doc.emplace_back("cpu_model", json::Value(cpu_model()));
    doc.emplace_back("hardware_threads",
                     json::Value(static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency())));
    json::Array apps;
    for (const workloads::AppSpec& app : workloads::corpus()) {
      json::Object entry;
      entry.emplace_back("app", json::Value(app.name));
      entry.emplace_back("image_mib_x86",
                         json::Value(round3(workloads::to_sim_mib(x86[app.name].image_bytes))));
      entry.emplace_back("image_mib_arm",
                         json::Value(round3(workloads::to_sim_mib(arm[app.name].image_bytes))));
      entry.emplace_back(
          "cache_mib",
          json::Value(round3(workloads::to_sim_mib(x86[app.name].cache_layer_bytes))));
      for (const DeltaRow& row : rows) {
        if (row.app != app.name) continue;
        entry.emplace_back("optimized_image_mib", json::Value(round3(row.image_mib)));
        entry.emplace_back("delta_moved_mib", json::Value(round3(row.moved_mib)));
        entry.emplace_back("delta_moved_pct", json::Value(round3(row.moved_pct)));
        entry.emplace_back("dedup_mib", json::Value(round3(row.deduped_mib)));
        entry.emplace_back("chunk_stored_mib", json::Value(round3(row.stored_mib)));
        entry.emplace_back("cas_logical_mib", json::Value(round3(row.logical_mib)));
        entry.emplace_back("dedup_ratio", json::Value(round3(row.dedup_ratio)));
        entry.emplace_back("chunks_moved",
                           json::Value(static_cast<std::uint64_t>(row.chunks_moved)));
        entry.emplace_back("chunks_reused",
                           json::Value(static_cast<std::uint64_t>(row.chunks_reused)));
      }
      apps.push_back(json::Value(std::move(entry)));
    }
    doc.emplace_back("apps", json::Value(std::move(apps)));
    doc.emplace_back("worst_delta_moved_pct", json::Value(round3(worst_moved_pct)));
    doc.emplace_back("overall_delta_moved_pct", json::Value(round3(overall_moved_pct)));
    doc.emplace_back("min_dedup_ratio", json::Value(round3(min_ratio)));
    doc.emplace_back("torn_transfer_check",
                     json::Value(std::string(torn_rc == 0 ? "pass" : "fail")));
    if (write_file(json_path, json::serialize_pretty(json::Value(std::move(doc)))) != 0) {
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return rc;
}
