#include "core/cache.hpp"

#include "pkg/pkg.hpp"
#include "toolchain/source.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"

namespace comt::core {

Result<vfs::Filesystem> make_cache_layer(const ProcessModels& models,
                                         const vfs::Filesystem& build_rootfs,
                                         const CacheOptions& options) {
  vfs::Filesystem layer;
  std::string dir(kCacheDir);
  COMT_TRY_STATUS(layer.make_directories(dir));
  // Obfuscation changes source bytes, so the graph's leaf digests must be
  // re-keyed; work on a copy so the caller's models stay pristine.
  BuildGraph graph = models.graph;

  // Every leaf node's content, keyed by digest. These are the high-level
  // build inputs (source code, headers, data) that enable system-side
  // recompilation — the bulk of Table 3's cache sizes. Inputs owned by
  // packages (system libraries read at link time) are deliberately NOT
  // cached: the target system supplies its own builds of those — that
  // substitution is the whole point of the rebuild.
  COMT_TRY(pkg::Database database, pkg::Database::load(build_rootfs));
  for (GraphNode& node : graph.nodes()) {
    if (!node.is_leaf() || node.content_digest.empty()) continue;
    if (!database.owner_of(node.path).empty()) continue;
    auto content = build_rootfs.read_file(node.path);
    if (!content.ok()) {
      return make_error(Errc::not_found,
                        "cache: build input vanished from build container: " + node.path);
    }
    if (Sha256::hex_digest(content.value()) != node.content_digest) {
      return make_error(Errc::corrupt,
                        "cache: build input changed since it was recorded: " + node.path);
    }
    std::string payload = std::move(content).value();
    if (options.obfuscate_sources) {
      payload = toolchain::obfuscate_source(payload);
      node.content_digest = Sha256::hex_digest(payload);
    }
    COMT_TRY_STATUS(layer.write_file(dir + "/sources/" + node.content_digest,
                                     std::move(payload)));
  }
  COMT_TRY_STATUS(
      layer.write_file(dir + "/build_graph.json", json::serialize(graph.to_json())));
  COMT_TRY_STATUS(
      layer.write_file(dir + "/image_model.json", json::serialize(models.image.to_json())));
  return layer;
}

Result<CacheBundle> load_cache(const vfs::Filesystem& extended_rootfs) {
  std::string dir(kCacheDir);
  if (!extended_rootfs.is_directory(dir)) {
    return make_error(Errc::not_found,
                      "not a coMtainer extended image (no " + dir + " layer)");
  }
  CacheBundle bundle;
  COMT_TRY(std::string graph_text, extended_rootfs.read_file(dir + "/build_graph.json"));
  COMT_TRY(json::Value graph_json, json::parse(graph_text));
  COMT_TRY(bundle.models.graph, BuildGraph::from_json(graph_json));

  COMT_TRY(std::string image_text, extended_rootfs.read_file(dir + "/image_model.json"));
  COMT_TRY(json::Value image_json, json::parse(image_text));
  COMT_TRY(bundle.models.image, ImageModel::from_json(image_json));

  std::string sources_dir = dir + "/sources";
  if (extended_rootfs.is_directory(sources_dir)) {
    COMT_TRY(std::vector<std::string> names, extended_rootfs.list_directory(sources_dir));
    for (const std::string& digest : names) {
      COMT_TRY(std::string content, extended_rootfs.read_file(sources_dir + "/" + digest));
      if (Sha256::hex_digest(content) != digest) {
        return make_error(Errc::corrupt, "cache: source blob corrupt: " + digest);
      }
      bundle.sources.emplace(digest, std::move(content));
    }
  }
  return bundle;
}

std::uint64_t cache_layer_bytes(const vfs::Filesystem& cache_layer) {
  return cache_layer.total_file_bytes();
}

}  // namespace comt::core
