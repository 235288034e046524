#include "core/verify.hpp"

#include <set>

#include "core/cache.hpp"
#include "pkg/pkg.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"

namespace comt::core {

Result<VerifyReport> verify_extended_image(const oci::Layout& layout,
                                           std::string_view tag) {
  VerifyReport report;

  // 1. The blob store itself: every blob matches its digest key.
  if (Status fsck = layout.fsck(); !fsck.ok()) {
    report.problems.push_back("layout fsck: " + fsck.error().to_string());
  }

  COMT_TRY(oci::Image image, layout.find_image(tag));
  COMT_TRY(vfs::Filesystem rootfs, layout.flatten(image));

  // 2. The cache bundle (every source's digest is checked).
  auto bundle = cache_bundle(layout, image, &rootfs);
  if (!bundle.ok()) {
    report.problems.push_back("cache: " + bundle.error().to_string());
    return report;
  }
  report.is_extended = true;
  const BuildGraph& graph = bundle.value()->models.graph;
  const ImageModel& model = bundle.value()->models.image;
  report.graph_nodes = graph.size();
  report.sources_cached = bundle.value()->sources.node_count();

  // 3. Graph structure.
  if (auto order = graph.topological_order(); order.ok()) {
    report.graph_valid = true;
  } else {
    report.problems.push_back("graph: " + order.error().to_string());
  }

  // 4. Source completeness: every non-package leaf must be in the cache.
  COMT_TRY(pkg::Database database, pkg::Database::load(rootfs));
  for (const GraphNode& node : graph.nodes()) {
    if (!node.is_leaf() || node.content_digest.empty()) continue;
    if (bundle.value()->sources.exists("/" + node.content_digest)) continue;
    // Package-owned inputs are substituted by the target environment.
    if (!database.owner_of(node.path).empty()) continue;
    if (starts_with(node.path, "/usr/lib/") || starts_with(node.path, "/lib/")) continue;
    ++report.sources_missing;
    report.problems.push_back("missing source for graph node " +
                              std::to_string(node.id) + " (" + node.path + ")");
  }

  // 5. Image model consistency.
  report.files_classified = model.files.size();
  report.origin_histogram = model.origin_histogram();
  std::set<std::string> modeled_paths;
  for (const ImageFileEntry& entry : model.files) {
    modeled_paths.insert(entry.path);
    if (entry.origin == FileOrigin::build_process) {
      if (entry.build_node < 0 || entry.build_node >= static_cast<int>(graph.size())) {
        report.problems.push_back("image model: " + entry.path +
                                  " references invalid graph node " +
                                  std::to_string(entry.build_node));
      }
      if (!rootfs.is_regular(entry.path)) {
        report.problems.push_back("image model: build product vanished: " + entry.path);
      }
    }
  }
  // Every non-directory file of the image (outside coMtainer's own layer)
  // must be classified.
  rootfs.walk([&](const std::string& path, const vfs::Node& node) {
    if (node.type == vfs::NodeType::directory) return true;
    if (starts_with(path, "/.coMtainer")) return true;
    if (modeled_paths.count(path) == 0) {
      report.problems.push_back("unclassified file: " + path);
    }
    return true;
  });

  // 6. Entrypoint provenance: the program being shipped should be a build
  // product the graph can regenerate.
  if (!model.entrypoint.empty()) {
    for (const ImageFileEntry& entry : model.files) {
      if (entry.path == model.entrypoint.front() &&
          entry.origin == FileOrigin::build_process) {
        report.entrypoint_is_build_product = true;
      }
    }
    if (!report.entrypoint_is_build_product) {
      report.problems.push_back("entrypoint " + model.entrypoint.front() +
                                " is not a rebuildable build product");
    }
  }
  return report;
}

}  // namespace comt::core
