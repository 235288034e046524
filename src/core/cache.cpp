#include "core/cache.hpp"

#include <optional>

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
    auto digest = build_rootfs.digest(node.path);
    if (!digest.ok()) {
      return make_error(Errc::not_found,
                        "cache: build input vanished from build container: " + node.path);
    }
    if (digest.value() != node.content_digest) {
      return make_error(Errc::corrupt,
                        "cache: build input changed since it was recorded: " + node.path);
    }
    COMT_TRY(std::string payload, build_rootfs.read_file(node.path));
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
      const std::string path = sources_dir + "/" + digest;
      COMT_TRY(std::string actual, extended_rootfs.digest(path));
      if (actual != digest) {
        return make_error(Errc::corrupt, "cache: source blob corrupt: " + digest);
      }
      COMT_TRY_STATUS(bundle.sources.copy_from(extended_rootfs, path, "/" + digest));
    }
  }
  return bundle;
}

namespace {

/// Whether applying `layer` can change what an image holds at kCacheDir:
/// the layer has the directory itself (and with it anything under it), a
/// non-directory at one of its ancestors, a whiteout of it or of an
/// ancestor, or an opaque marker in an ancestor. Layer trees keep every
/// node's parents, so these few lookups see every such path.
bool touches_cache_dir(const vfs::Filesystem& layer) {
  const std::string dir(kCacheDir);
  if (layer.exists(dir)) return true;
  std::string ancestor = dir;
  while (ancestor != "/") {
    const std::string name = path_basename(ancestor);
    ancestor = path_dirname(ancestor);
    if (layer.exists(path_join(ancestor, std::string(vfs::kWhiteoutPrefix) + name)) ||
        layer.exists(path_join(ancestor, vfs::kOpaqueMarker))) {
      return true;
    }
    const vfs::Node* node = layer.lookup(ancestor);
    if (node != nullptr && node->type != vfs::NodeType::directory) return true;
  }
  return false;
}

/// The bundle a cache layer's own tree holds, when it is the whole story:
/// kCacheDir is a directory with no whiteout, opaque marker or symlink under
/// it, so the image's flatten, in which no other layer touches kCacheDir,
/// shows exactly these nodes there. Null when it is not.
Result<std::shared_ptr<const CacheBundle>> kept_bundle(const vfs::Filesystem& layer) {
  const std::string dir(kCacheDir);
  if (!layer.is_directory(dir)) return std::shared_ptr<const CacheBundle>();
  const std::string under = dir + "/";
  bool self_contained = true;
  layer.walk([&](const std::string& path, const vfs::Node& node) {
    if (starts_with(path, under) &&
        (node.type == vfs::NodeType::symlink ||
         starts_with(path_basename(path), vfs::kWhiteoutPrefix))) {
      self_contained = false;
    }
    return self_contained;
  });
  if (!self_contained) return std::shared_ptr<const CacheBundle>();
  COMT_TRY(CacheBundle bundle, load_cache(layer));
  return std::make_shared<const CacheBundle>(std::move(bundle));
}

}  // namespace

Result<std::shared_ptr<const CacheBundle>> cache_bundle(const oci::Layout& layout,
                                                        const oci::Image& image,
                                                        const vfs::Filesystem* flattened) {
  if (!layout.attached()) {
    const oci::Descriptor* cache_layer = nullptr;
    int touching = 0;
    for (const oci::Descriptor& layer : image.manifest.layers) {
      COMT_TRY(std::shared_ptr<const vfs::Filesystem> tree, layout.layer_tree(layer));
      if (touches_cache_dir(*tree) && ++touching == 1) cache_layer = &layer;
    }
    if (touching == 1) {
      COMT_TRY(std::shared_ptr<const CacheBundle> kept,
               layout.layer_memo<CacheBundle>(*cache_layer, kept_bundle));
      if (kept != nullptr) return kept;
    }
  }
  std::optional<vfs::Filesystem> own;
  if (flattened == nullptr) {
    COMT_TRY(own, layout.flatten(image));
    flattened = &*own;
  }
  COMT_TRY(CacheBundle bundle, load_cache(*flattened));
  return std::make_shared<const CacheBundle>(std::move(bundle));
}

std::uint64_t cache_layer_bytes(const vfs::Filesystem& cache_layer) {
  return cache_layer.total_file_bytes();
}

}  // namespace comt::core
