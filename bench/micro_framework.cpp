// Framework micro-benchmarks (google-benchmark): the coMtainer machinery
// costs the paper treats qualitatively — image flattening, layout copies,
// registry pulls, layer packing, digesting, GCC command-line parsing,
// build-graph serialization, dependency resolution, and the full
// user-side/system-side pipeline stages.
#include <benchmark/benchmark.h>

#include "core/backend.hpp"
#include "core/frontend.hpp"
#include "pkg/pkg.hpp"
#include "registry/registry.hpp"
#include "support/sha256.hpp"
#include "support/sha256_compress.hpp"
#include "tar/tar.hpp"
#include "toolchain/options.hpp"
#include "workloads/harness.hpp"

using namespace comt;

namespace {

const workloads::AppSpec& lammps() {
  const workloads::AppSpec* app = workloads::find_app("lammps");
  COMT_ASSERT(app != nullptr, "lammps missing");
  return *app;
}

// BM_Sha256 is the dispatched path every caller gets (SHA extensions when
// CPUID has them); BM_Sha256Portable pins the portable compressor.
void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hex_digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Sha256Portable(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    Sha256 hasher(&sha256_detail::compress_portable);
    hasher.update(data);
    benchmark::DoNotOptimize(hasher.finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_TarPackUnpack(benchmark::State& state) {
  vfs::Filesystem tree = workloads::build_context(lammps());
  for (auto _ : state) {
    std::string blob = tar::pack(tree);
    auto back = tar::unpack(blob);
    benchmark::DoNotOptimize(back.ok());
  }
}
BENCHMARK(BM_TarPackUnpack);

void BM_GccCommandParse(benchmark::State& state) {
  std::vector<std::string> argv = {
      "gcc",  "-O3",      "-march=x86-64-v3", "-mtune=native", "-ffast-math",
      "-fno-math-errno", "-funroll-loops",   "-flto=auto",    "-fprofile-use=prof",
      "-Wall", "-Wextra", "-Wno-unused-parameter", "-Iinclude", "-I/usr/local/include",
      "-DNDEBUG", "-DUSE_MPI=1", "-c", "kernel.cc", "-o", "kernel.o"};
  for (auto _ : state) {
    auto parsed = toolchain::parse_command(argv);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_GccCommandParse);

void BM_GccCommandRoundTrip(benchmark::State& state) {
  std::vector<std::string> argv = {"g++", "-O2", "-std=c++20", "-fPIC", "-shared",
                                   "a.o", "b.o", "-Ldeps", "-lblas", "-lm",
                                   "-Wl,-rpath,/opt/lib", "-o", "libx.so"};
  auto parsed = toolchain::parse_command(argv);
  COMT_ASSERT(parsed.ok(), "parse failed");
  for (auto _ : state) {
    auto rendered = parsed.value().render();
    auto reparsed = toolchain::parse_command(rendered);
    benchmark::DoNotOptimize(reparsed.ok());
  }
}
BENCHMARK(BM_GccCommandRoundTrip);

void BM_DependencyResolve(benchmark::State& state) {
  const pkg::Repository& repo = workloads::ubuntu_repo("amd64");
  for (auto _ : state) {
    auto plan = pkg::resolve(repo, {"build-essential", "libscalapack", "libelpa",
                                    "libxc", "mpich"});
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_DependencyResolve);

// BM_ImageFlatten is a warm flatten: the layout keeps the layers it has
// unpacked, so every iteration binds kept trees. BM_ImageFlattenCold flattens
// a fresh copy of a layout that never unpacked them: read, un-tar, bind.
void BM_ImageFlatten(benchmark::State& state) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(lammps());
  COMT_ASSERT(prepared.ok(), "prepare failed");
  auto image = world.layout().find_image(prepared.value().dist_tag);
  COMT_ASSERT(image.ok(), "image missing");
  for (auto _ : state) {
    auto rootfs = world.layout().flatten(image.value());
    benchmark::DoNotOptimize(rootfs.ok());
  }
}
BENCHMARK(BM_ImageFlatten);

void BM_ImageFlattenCold(benchmark::State& state) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(lammps());
  COMT_ASSERT(prepared.ok(), "prepare failed");
  auto image = world.layout().find_image(prepared.value().dist_tag);
  COMT_ASSERT(image.ok(), "image missing");
  // The same blobs in a layout that has flattened nothing.
  oci::Layout cold;
  for (const oci::Digest& digest : world.layout().blob_digests()) {
    cold.put_blob(world.layout().get_blob(digest).value(), oci::kMediaTypeLayer);
  }
  for (auto _ : state) {
    oci::Layout copy = cold;
    auto rootfs = copy.flatten(image.value());
    benchmark::DoNotOptimize(rootfs.ok());
  }
}
BENCHMARK(BM_ImageFlattenCold);

// Copying a layout that holds the Sysenv and Rebase images, as every service
// attempt does to get its private workspace.
void BM_LayoutCopy(benchmark::State& state) {
  oci::Layout base;
  Status installed =
      workloads::install_system_images(base, sysmodel::SystemProfile::x86_cluster());
  COMT_ASSERT(installed.ok(), "install failed");
  for (auto _ : state) {
    oci::Layout copy = base;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["blob_bytes"] = static_cast<double>(base.total_blob_bytes());
}
BENCHMARK(BM_LayoutCopy);

// The front of a refresh ticket on the site side: copy the Sysenv base
// layout, pull the lammps extended image from an in-memory hub into the
// copy, and flatten it. Every pulled blob is checked on each pull, by the
// proof the hub's buffer carries since the push hashed it.
void BM_RegistryPullAndFlatten(benchmark::State& state) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  workloads::Evaluation world(system);
  auto prepared = world.prepare(lammps());
  COMT_ASSERT(prepared.ok(), "prepare failed");
  registry::Registry hub;
  COMT_ASSERT(hub.push(world.layout(), prepared.value().extended_tag, "bench/lammps", "1").ok(),
              "push failed");
  oci::Layout base;
  COMT_ASSERT(workloads::install_system_images(base, system).ok(), "install failed");
  auto sysenv = base.find_image(workloads::sysenv_tag(system));
  COMT_ASSERT(sysenv.ok() && base.flatten(sysenv.value()).ok(), "sysenv flatten failed");
  for (auto _ : state) {
    oci::Layout workspace = base;
    COMT_ASSERT(hub.pull("bench/lammps", "1", workspace, "work").ok(), "pull failed");
    auto image = workspace.find_image("work");
    COMT_ASSERT(image.ok(), "pulled image missing");
    auto rootfs = workspace.flatten(image.value());
    benchmark::DoNotOptimize(rootfs.ok());
  }
  state.counters["pulled_bytes"] = benchmark::Counter(
      static_cast<double>(hub.stats().pulled_bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RegistryPullAndFlatten);

// The rest of a refresh ticket: a rebuild of openmx whose every compile and
// link replays from a warm compile cache, on a fresh copy of the layout. What
// is left is resolve (the cache bundle), binding the cached sources, the
// input digests each replay checks, the replays and the layer commit.
void BM_WarmCacheRebuild(benchmark::State& state) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  workloads::Evaluation world(system);
  const workloads::AppSpec* app = workloads::find_app("openmx");
  COMT_ASSERT(app != nullptr, "openmx missing");
  auto prepared = world.prepare(*app);
  COMT_ASSERT(prepared.ok(), "prepare failed");
  const auto owned = core::adapted_scheme();
  sched::CompileCache cache;
  core::RebuildOptions options;
  options.system = &system;
  options.system_repo = &workloads::system_repo(system);
  options.sysenv_tag = workloads::sysenv_tag(system);
  for (const auto& adapter : owned) options.adapters.push_back(adapter.get());
  options.compile_cache = &cache;
  const oci::Layout base = world.layout();
  {
    oci::Layout warm = base;
    COMT_ASSERT(core::comtainer_rebuild(warm, prepared.value().extended_tag, options).ok(),
                "warm-up rebuild failed");
  }
  for (auto _ : state) {
    oci::Layout workspace = base;
    auto report = core::comtainer_rebuild(workspace, prepared.value().extended_tag, options);
    COMT_ASSERT(report.ok() && report.value().cache_misses == 0, "warm rebuild missed");
  }
}
BENCHMARK(BM_WarmCacheRebuild);

void BM_UserSidePipeline(benchmark::State& state) {
  // Full user-side flow: two-stage image build + analysis + cache layer.
  const workloads::AppSpec* app = workloads::find_app("lulesh");
  for (auto _ : state) {
    workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
    auto prepared = world.prepare(*app);
    benchmark::DoNotOptimize(prepared.ok());
  }
}
BENCHMARK(BM_UserSidePipeline)->Unit(benchmark::kMillisecond);

void BM_SystemSideRebuild(benchmark::State& state) {
  const workloads::AppSpec* app = workloads::find_app("lulesh");
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(*app);
  COMT_ASSERT(prepared.ok(), "prepare failed");
  for (auto _ : state) {
    auto tag = world.adapt(*app, prepared.value());
    benchmark::DoNotOptimize(tag.ok());
  }
}
BENCHMARK(BM_SystemSideRebuild)->Unit(benchmark::kMillisecond);

void BM_BuildGraphSerialize(benchmark::State& state) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(lammps());
  COMT_ASSERT(prepared.ok(), "prepare failed");
  auto extended = world.layout().find_image(prepared.value().extended_tag);
  auto rootfs = world.layout().flatten(extended.value());
  auto bundle = core::load_cache(rootfs.value());
  COMT_ASSERT(bundle.ok(), "cache load failed");
  for (auto _ : state) {
    std::string text = json::serialize(bundle.value().models.graph.to_json());
    auto parsed = json::parse(text);
    auto graph = core::BuildGraph::from_json(parsed.value());
    benchmark::DoNotOptimize(graph.ok());
  }
}
BENCHMARK(BM_BuildGraphSerialize);

}  // namespace

BENCHMARK_MAIN();
