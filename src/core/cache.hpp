// Cache storage (§4.2/§4.5): encodes the process models and build inputs into
// an OCI cache layer, turning an application image into a coMtainer
// *extended image* — and decodes them back on the system side. Thanks to the
// layered nature of OCI images the injection changes nothing in the original
// image; the extended manifest is tagged "<tag>+coM" alongside it, exactly
// like the artifact's index.json convention.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/models.hpp"
#include "oci/oci.hpp"
#include "support/error.hpp"
#include "vfs/vfs.hpp"

namespace comt::core {

/// Where the cache layer lives inside an extended image.
inline constexpr std::string_view kCacheDir = "/.coMtainer/cache";
/// Manifest tag suffixes, as in the artifact's index.json.
inline constexpr std::string_view kExtendedSuffix = "+coM";
inline constexpr std::string_view kRebuiltSuffix = "+coMre";
inline constexpr std::string_view kRedirectedSuffix = "+opt";
/// Where the rebuild layer stores its outputs, keyed by original image path.
inline constexpr std::string_view kRebuildDir = "/.coMtainer/rebuild";

/// Everything the system side needs to rebuild: the models and every build
/// input's content keyed by digest.
struct CacheBundle {
  ProcessModels models;
  /// One regular file per cached build input, at "/<content digest>", each
  /// checked against its name. The nodes are the image's own: a bundle holds
  /// no copy of the source bytes, and binding a node elsewhere (copy_from)
  /// keeps its digest memo.
  vfs::Filesystem sources;
};

struct CacheOptions {
  /// §4.6: ship obfuscated sources — identifiers and logic are masked, the
  /// compilation-relevant structure (annotations, includes) survives, and
  /// the graph's leaf digests are re-keyed to the obfuscated contents so
  /// every integrity check still holds.
  bool obfuscate_sources = false;
};

/// Assembles the cache layer tree. Build-input contents (sources, headers,
/// data files — every leaf of the graph) are pulled from the build
/// container's filesystem by path, verified against their recorded digests.
Result<vfs::Filesystem> make_cache_layer(const ProcessModels& models,
                                         const vfs::Filesystem& build_rootfs,
                                         const CacheOptions& options = {});

/// Reads a cache bundle back out of an extended image's flattened tree.
Result<CacheBundle> load_cache(const vfs::Filesystem& extended_rootfs);

/// The cache bundle of `image`, an extended image in `layout`: the one way
/// comtainer_rebuild, comtainer_redirect and verify_extended_image get it.
/// When one layer is the only one that adds to, replaces or hides kCacheDir
/// (whiteouts and opaque markers on it or its ancestors included), this is
/// the bundle kept with that layer's stored buffer: parsed, and every source
/// checked, once per buffer, with no flatten of the image. Otherwise, and on
/// an attached layout, it is load_cache(flatten(image)); `flattened`, when
/// the caller already holds that flatten, spares a second one.
Result<std::shared_ptr<const CacheBundle>> cache_bundle(
    const oci::Layout& layout, const oci::Image& image,
    const vfs::Filesystem* flattened = nullptr);

/// Total size in bytes of the cache layer's files (Table 3's "Cache" column).
std::uint64_t cache_layer_bytes(const vfs::Filesystem& cache_layer);

}  // namespace comt::core
