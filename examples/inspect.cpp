// coMtainer image inspector: what a system administrator would run against a
// pulled extended image before trusting a rebuild. Prints the manifest chain,
// the five-way file-provenance breakdown, the runtime dependency list, the
// build graph (with its Graphviz rendering), and each compilation model.
#include <cstdio>

#include "core/cache.hpp"
#include "core/verify.hpp"
#include "support/strings.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

using namespace comt;

namespace {

void print_image_row(const oci::Layout& layout, std::string_view tag) {
  auto image = layout.find_image(tag);
  if (!image.ok()) return;
  std::uint64_t bytes = image.value().manifest.config.size;
  for (const oci::Descriptor& layer : image.value().manifest.layers) bytes += layer.size;
  std::printf("  %-22s %2zu layers  %8.2f MiB  %s\n", std::string(tag).c_str(),
              image.value().manifest.layers.size(), workloads::to_sim_mib(bytes),
              image.value().manifest_digest.value.substr(0, 19).c_str());
}

}  // namespace

int main() {
  // Stage an extended image to inspect (in a real deployment this would be
  // `comtainer inspect ./app.dist.oci`).
  const workloads::AppSpec* app = workloads::find_app("minife");
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(*app);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.error().to_string().c_str());
    return 1;
  }

  std::printf("== manifests in the layout (index.json) ==\n");
  print_image_row(world.layout(), prepared.value().dist_tag);
  print_image_row(world.layout(), prepared.value().extended_tag);

  auto extended = world.layout().find_image(prepared.value().extended_tag);
  auto rootfs = world.layout().flatten(extended.value());
  if (!rootfs.ok()) return 1;
  auto bundle = core::load_cache(rootfs.value());
  if (!bundle.ok()) {
    std::fprintf(stderr, "not an extended image: %s\n",
                 bundle.error().to_string().c_str());
    return 1;
  }

  const core::ImageModel& model = bundle.value().models.image;
  std::printf("\n== image model: file provenance (%zu files) ==\n", model.files.size());
  auto histogram = model.origin_histogram();
  for (auto origin : {core::FileOrigin::base_image, core::FileOrigin::package_manager,
                      core::FileOrigin::build_process, core::FileOrigin::data,
                      core::FileOrigin::unknown}) {
    std::printf("  %-10s %4zu\n", core::file_origin_name(origin),
                histogram.count(origin) != 0 ? histogram.at(origin) : 0);
  }
  std::printf("\n  build products:\n");
  for (const core::ImageFileEntry& entry : model.files) {
    if (entry.origin == core::FileOrigin::build_process) {
      std::printf("    %-28s <- graph node %d\n", entry.path.c_str(), entry.build_node);
    }
  }

  std::printf("\n== runtime dependencies ==\n");
  for (const core::RuntimePackage& package : model.runtime_packages) {
    std::printf("  %-18s %-12s %s\n", package.name.c_str(), package.version.c_str(),
                package.variant.c_str());
  }

  const core::BuildGraph& graph = bundle.value().models.graph;
  std::printf("\n== build graph (%zu nodes, %zu cached inputs) ==\n", graph.size(),
              bundle.value().sources.node_count());
  for (const core::GraphNode& node : graph.nodes()) {
    std::string deps;
    for (int dep : node.deps) deps += (deps.empty() ? "" : ",") + std::to_string(dep);
    std::printf("  [%2d] %-10s %-28s deps={%s}\n", node.id,
                core::node_kind_name(node.kind), node.path.c_str(), deps.c_str());
    if (node.compile.has_value()) {
      std::printf("        compilation model: %s\n",
                  join(node.compile->render(), " ").c_str());
    }
  }

  std::printf("\n== graphviz ==\n%s", graph.to_dot().c_str());

  // The admin's go/no-go check before rebuilding from this image.
  auto verification =
      core::verify_extended_image(world.layout(), prepared.value().extended_tag);
  if (!verification.ok()) {
    std::fprintf(stderr, "verification error: %s\n",
                 verification.error().to_string().c_str());
    return 1;
  }
  std::printf("\n== verification ==\n");
  std::printf("  extended image: %s | graph: %s | sources cached: %zu, missing: %zu\n",
              verification.value().is_extended ? "yes" : "NO",
              verification.value().graph_valid ? "valid" : "INVALID",
              verification.value().sources_cached, verification.value().sources_missing);
  for (const std::string& problem : verification.value().problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  std::printf("  verdict: %s\n", verification.value().ok() ? "OK to rebuild" : "DO NOT REBUILD");
  return verification.value().ok() ? 0 : 1;
}
