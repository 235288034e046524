#include "oci/oci.hpp"

#include "support/sha256.hpp"
#include "tar/tar.hpp"

namespace comt::oci {
namespace {

json::Value annotations_to_json(const std::map<std::string, std::string>& annotations) {
  json::Object object;
  for (const auto& [key, value] : annotations) object.emplace_back(key, json::Value(value));
  return json::Value(std::move(object));
}

std::map<std::string, std::string> annotations_from_json(const json::Value* value) {
  std::map<std::string, std::string> out;
  if (value == nullptr || !value->is_object()) return out;
  for (const auto& [key, v] : value->as_object()) {
    if (v.is_string()) out[key] = v.as_string();
  }
  return out;
}

json::Value string_list_to_json(const std::vector<std::string>& items) {
  json::Array array;
  for (const std::string& item : items) array.emplace_back(item);
  return json::Value(std::move(array));
}

std::vector<std::string> string_list_from_json(const json::Value* value) {
  std::vector<std::string> out;
  if (value == nullptr || !value->is_array()) return out;
  for (const json::Value& item : value->as_array()) {
    if (item.is_string()) out.push_back(item.as_string());
  }
  return out;
}

}  // namespace

Digest Digest::of_blob(std::string_view blob) {
  return Digest{"sha256:" + Sha256::hex_digest(blob)};
}

json::Value Descriptor::to_json() const {
  json::Object object;
  object.emplace_back("mediaType", json::Value(media_type));
  object.emplace_back("digest", json::Value(digest.value));
  object.emplace_back("size", json::Value(size));
  if (!annotations.empty()) {
    object.emplace_back("annotations", annotations_to_json(annotations));
  }
  return json::Value(std::move(object));
}

Result<Descriptor> Descriptor::from_json(const json::Value& value) {
  if (!value.is_object()) {
    return make_error(Errc::invalid_argument, "descriptor: not an object");
  }
  Descriptor out;
  out.media_type = value.get_string("mediaType");
  out.digest.value = value.get_string("digest");
  out.size = static_cast<std::uint64_t>(value.get_int("size"));
  out.annotations = annotations_from_json(value.find("annotations"));
  if (out.digest.empty()) {
    return make_error(Errc::invalid_argument, "descriptor: missing digest");
  }
  return out;
}

json::Value ImageConfig::to_json() const {
  json::Object runtime;
  runtime.emplace_back("Env", string_list_to_json(config.env));
  runtime.emplace_back("Entrypoint", string_list_to_json(config.entrypoint));
  runtime.emplace_back("Cmd", string_list_to_json(config.cmd));
  runtime.emplace_back("WorkingDir", json::Value(config.working_dir));
  {
    json::Object labels;
    for (const auto& [key, value] : config.labels) labels.emplace_back(key, json::Value(value));
    runtime.emplace_back("Labels", json::Value(std::move(labels)));
  }

  json::Array diff_ids;
  for (const Digest& id : this->diff_ids) diff_ids.emplace_back(id.value);
  json::Object rootfs;
  rootfs.emplace_back("type", json::Value("layers"));
  rootfs.emplace_back("diff_ids", json::Value(std::move(diff_ids)));

  json::Array history_json;
  for (const std::string& line : history) {
    json::Object entry;
    entry.emplace_back("created_by", json::Value(line));
    history_json.emplace_back(std::move(entry));
  }

  json::Object object;
  object.emplace_back("architecture", json::Value(architecture));
  object.emplace_back("os", json::Value(os));
  object.emplace_back("config", json::Value(std::move(runtime)));
  object.emplace_back("rootfs", json::Value(std::move(rootfs)));
  object.emplace_back("history", json::Value(std::move(history_json)));
  return json::Value(std::move(object));
}

Result<ImageConfig> ImageConfig::from_json(const json::Value& value) {
  if (!value.is_object()) {
    return make_error(Errc::invalid_argument, "image config: not an object");
  }
  ImageConfig out;
  out.architecture = value.get_string("architecture", "amd64");
  out.os = value.get_string("os", "linux");
  if (const json::Value* runtime = value.find("config"); runtime != nullptr) {
    out.config.env = string_list_from_json(runtime->find("Env"));
    out.config.entrypoint = string_list_from_json(runtime->find("Entrypoint"));
    out.config.cmd = string_list_from_json(runtime->find("Cmd"));
    out.config.working_dir = runtime->get_string("WorkingDir", "/");
    if (const json::Value* labels = runtime->find("Labels");
        labels != nullptr && labels->is_object()) {
      for (const auto& [key, v] : labels->as_object()) {
        if (v.is_string()) out.config.labels[key] = v.as_string();
      }
    }
  }
  if (const json::Value* rootfs = value.find("rootfs"); rootfs != nullptr) {
    for (const std::string& id : string_list_from_json(rootfs->find("diff_ids"))) {
      out.diff_ids.push_back(Digest{id});
    }
  }
  if (const json::Value* history = value.find("history");
      history != nullptr && history->is_array()) {
    for (const json::Value& entry : history->as_array()) {
      out.history.push_back(entry.get_string("created_by"));
    }
  }
  return out;
}

json::Value Manifest::to_json() const {
  json::Object object;
  object.emplace_back("schemaVersion", json::Value(2));
  object.emplace_back("mediaType", json::Value(kMediaTypeManifest));
  object.emplace_back("config", config.to_json());
  json::Array layers_json;
  for (const Descriptor& layer : layers) layers_json.push_back(layer.to_json());
  object.emplace_back("layers", json::Value(std::move(layers_json)));
  if (!annotations.empty()) {
    object.emplace_back("annotations", annotations_to_json(annotations));
  }
  return json::Value(std::move(object));
}

Result<Manifest> Manifest::from_json(const json::Value& value) {
  if (!value.is_object()) {
    return make_error(Errc::invalid_argument, "manifest: not an object");
  }
  Manifest out;
  const json::Value* config = value.find("config");
  if (config == nullptr) return make_error(Errc::invalid_argument, "manifest: missing config");
  COMT_TRY(out.config, Descriptor::from_json(*config));
  if (const json::Value* layers = value.find("layers");
      layers != nullptr && layers->is_array()) {
    for (const json::Value& layer : layers->as_array()) {
      COMT_TRY(Descriptor descriptor, Descriptor::from_json(layer));
      out.layers.push_back(std::move(descriptor));
    }
  }
  out.annotations = annotations_from_json(value.find("annotations"));
  return out;
}

Layout::LayerTrees::LayerTrees(const LayerTrees& other) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  trees_ = other.trees_;
}

Layout::LayerTrees::LayerTrees(LayerTrees&& other) noexcept
    : trees_(std::move(other.trees_)) {}

Layout::LayerTrees& Layout::LayerTrees::operator=(LayerTrees&& other) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  trees_ = std::move(other.trees_);
  ++generation_;
  return *this;
}

std::pair<Layout::Tree, std::uint64_t> Layout::LayerTrees::find(
    const std::string& digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = trees_.find(digest);
  return {it == trees_.end() ? nullptr : it->second, generation_};
}

void Layout::LayerTrees::keep(const std::string& digest, Tree tree, std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (generation == generation_) trees_.emplace(digest, std::move(tree));
}

void Layout::LayerTrees::drop(const std::string& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  trees_.erase(digest);
  ++generation_;
}

void Layout::LayerTrees::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  trees_.clear();
  ++generation_;
}

Layout::Layout() : blobs_(std::make_shared<store::MemStore>(), std::string(kBlobKeyPrefix)) {}

Layout::Layout(const Layout& other)
    : blobs_(other.attached_
                 ? std::make_shared<store::MemStore>()
                 // The source's own MemStore: copying it shares every buffer.
                 : std::make_shared<store::MemStore>(
                       static_cast<const store::MemStore&>(other.blobs_.backend())),
             std::string(kBlobKeyPrefix)),
      index_(other.index_),
      pins_(other.pins_),
      faults_(other.faults_),
      trees_(other.trees_) {
  // Another writer can change an attached backend: copy its bytes.
  if (other.attached_) copy_blobs_from(other);
}

Layout& Layout::operator=(const Layout& other) {
  if (this != &other) *this = Layout(other);
  return *this;
}

void Layout::copy_blobs_from(const Layout& other) {
  for (const std::string& digest : other.blobs_.digests()) {
    auto bytes = other.blobs_.get_unverified(digest);
    COMT_ASSERT(bytes.ok(), "layout copy: blob read failed");
    // put_at, not put: damaged bytes (torn blobs fsck has yet to see) must
    // survive the copy under their original digest, not move to a new one.
    COMT_ASSERT(blobs_.put_at(digest, std::move(bytes).value()).ok(),
                "layout copy: blob write failed");
  }
}

Status Layout::attach(std::shared_ptr<store::KvStore> backend) {
  COMT_ASSERT(backend != nullptr, "layout: attach(null backend)");
  store::CasStore fresh(backend, std::string(kBlobKeyPrefix));

  // Index entries already durable in the backend come first (they are the
  // older state); this layout's in-memory entries overlay them.
  std::vector<std::pair<std::string, Digest>> merged;
  auto upsert = [&merged](const std::string& tag, const Digest& digest) {
    for (auto& [existing_tag, existing] : merged) {
      if (existing_tag == tag) {
        existing = digest;
        return;
      }
    }
    merged.emplace_back(tag, digest);
  };
  if (auto index_text = backend->get(kIndexKey); index_text.ok()) {
    COMT_TRY(json::Value index, json::parse(index_text.value()));
    const json::Value* manifests = index.find("manifests");
    if (manifests == nullptr || !manifests->is_array()) {
      return make_error(Errc::corrupt, "layout: index.json missing manifests");
    }
    for (const json::Value& entry : manifests->as_array()) {
      COMT_TRY(Descriptor descriptor, Descriptor::from_json(entry));
      auto ref = descriptor.annotations.find(std::string(kRefNameAnnotation));
      upsert(ref == descriptor.annotations.end() ? descriptor.digest.value : ref->second,
             descriptor.digest);
    }
  }
  for (const std::string& digest : blobs_.digests()) {
    COMT_TRY(std::string bytes, blobs_.get_unverified(digest));
    COMT_TRY_STATUS(fresh.put_at(digest, std::move(bytes)));
  }
  for (const auto& [tag, digest] : index_) upsert(tag, digest);

  blobs_ = std::move(fresh);
  index_ = std::move(merged);
  attached_ = true;
  trees_.clear();
  return persist_index();
}

Status Layout::persist_index() {
  if (!attached_) return Status::success();
  store::KvStore& backend = blobs_.backend();
  COMT_TRY_STATUS(backend.put(kOciLayoutKey, std::string(kOciLayoutContent)));
  return backend.put(kIndexKey, json::serialize(index_json_impl(/*lenient=*/true)));
}

Descriptor Layout::put_blob(std::string blob, std::string_view media_type) {
  Descriptor descriptor;
  descriptor.media_type = std::string(media_type);
  descriptor.digest = Digest::of_blob(blob);
  descriptor.size = blob.size();
  if (faults_ != nullptr) {
    if (auto torn = faults_->check_torn(kBlobPutSite, blob.size()); torn.has_value()) {
      // The medium persisted a prefix under the full content's digest — the
      // classic torn blob fsck must find — and the process dies here.
      COMT_ASSERT(blobs_.put_at(descriptor.digest.value, blob.substr(0, *torn)).ok(),
                  "layout: torn blob write failed");
      trees_.drop(descriptor.digest.value);
      throw support::CrashInjected{std::string(kBlobPutSite)};
    }
  }
  // put_at under the precomputed digest: a re-put of the same digest is
  // normally a no-op rewrite under content addressing — but it heals a blob
  // an earlier torn write left truncated under this digest.
  COMT_ASSERT(blobs_.put_at(descriptor.digest.value, std::move(blob)).ok(),
              "layout: blob store put failed");
  trees_.drop(descriptor.digest.value);
  return descriptor;
}

void Layout::set_blob_bytes(const Digest& digest, std::string bytes) {
  COMT_ASSERT(has_blob(digest), ("set_blob_bytes: no such blob: " + digest.value).c_str());
  COMT_ASSERT(blobs_.put_at(digest.value, std::move(bytes)).ok(),
              "set_blob_bytes: blob store put failed");
  trees_.drop(digest.value);
}

Result<std::string> Layout::get_blob(const Digest& digest) const {
  // Unverified on purpose: fsck (and its tests) must be able to read damaged
  // bytes back to classify them. Verification belongs to fsck and to
  // CasStore::get users.
  auto bytes = blobs_.get_unverified(digest.value);
  if (!bytes.ok()) {
    return make_error(Errc::not_found, "no such blob: " + digest.value);
  }
  return bytes;
}

std::uint64_t Layout::total_blob_bytes() const { return blobs_.total_bytes(); }

std::vector<Digest> Layout::blob_digests() const {
  std::vector<Digest> out;
  for (std::string& digest : blobs_.digests()) out.push_back(Digest{std::move(digest)});
  return out;
}

std::uint64_t Layout::remove_blob(const Digest& digest) {
  if (is_pinned(digest)) return 0;
  const std::uint64_t freed = blobs_.erase(digest.value);
  trees_.drop(digest.value);
  return freed;
}

void Layout::pin_blob(const Digest& digest) { ++pins_[digest]; }

void Layout::unpin_blob(const Digest& digest) {
  auto it = pins_.find(digest);
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

Result<Digest> Layout::add_manifest(const Manifest& manifest, std::string_view tag) {
  if (!has_blob(manifest.config.digest)) {
    return make_error(Errc::not_found,
                      "manifest config blob missing: " + manifest.config.digest.value);
  }
  for (const Descriptor& layer : manifest.layers) {
    if (!has_blob(layer.digest)) {
      return make_error(Errc::not_found, "manifest layer blob missing: " + layer.digest.value);
    }
  }
  Descriptor descriptor =
      put_blob(json::serialize(manifest.to_json()), kMediaTypeManifest);
  for (auto& [existing_tag, digest] : index_) {
    if (existing_tag == tag) {
      digest = descriptor.digest;
      COMT_TRY_STATUS(persist_index());
      return descriptor.digest;
    }
  }
  index_.emplace_back(std::string(tag), descriptor.digest);
  COMT_TRY_STATUS(persist_index());
  return descriptor.digest;
}

std::vector<std::string> Layout::tags() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [tag, digest] : index_) out.push_back(tag);
  return out;
}

std::vector<std::pair<std::string, Digest>> Layout::index_entries() const {
  return index_;
}

void Layout::tag_manifest(std::string_view tag, const Digest& manifest_digest) {
  for (auto& [existing_tag, digest] : index_) {
    if (existing_tag == tag) {
      digest = manifest_digest;
      (void)persist_index();
      return;
    }
  }
  index_.emplace_back(std::string(tag), manifest_digest);
  (void)persist_index();
}

bool Layout::remove_tag(std::string_view tag) {
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    if (it->first == tag) {
      index_.erase(it);
      (void)persist_index();
      return true;
    }
  }
  return false;
}

Result<Image> Layout::find_image(std::string_view tag) const {
  for (const auto& [existing_tag, digest] : index_) {
    if (existing_tag == tag) return load_image(digest);
  }
  return make_error(Errc::not_found, "no such tag: " + std::string(tag));
}

Result<Image> Layout::load_image(const Digest& manifest_digest) const {
  COMT_TRY(std::string manifest_blob, get_blob(manifest_digest));
  COMT_TRY(json::Value manifest_doc, json::parse(manifest_blob));
  COMT_TRY(Manifest manifest, Manifest::from_json(manifest_doc));
  COMT_TRY(std::string config_blob, get_blob(manifest.config.digest));
  COMT_TRY(json::Value config_doc, json::parse(config_blob));
  COMT_TRY(ImageConfig config, ImageConfig::from_json(config_doc));
  return Image{manifest_digest, std::move(manifest), std::move(config)};
}

Result<vfs::Filesystem> Layout::flatten(const Image& image) const {
  vfs::Filesystem root;
  for (const Descriptor& layer : image.manifest.layers) {
    COMT_TRY(Tree tree, layer_tree(layer));
    COMT_TRY_STATUS(vfs::apply_layer(root, *tree));
  }
  return root;
}

Result<Layout::Tree> Layout::layer_tree(const Descriptor& layer) const {
  auto [kept, generation] = trees_.find(layer.digest.value);
  if (kept != nullptr) return kept;
  COMT_TRY(vfs::Filesystem unpacked, read_layer(layer));
  auto tree = std::make_shared<const vfs::Filesystem>(std::move(unpacked));
  if (!attached_) trees_.keep(layer.digest.value, tree, generation);
  return tree;
}

Descriptor Layout::put_layer(const vfs::Filesystem& tree) {
  return put_blob(tar::pack(tree), kMediaTypeLayer);
}

Result<vfs::Filesystem> Layout::read_layer(const Descriptor& layer) const {
  COMT_TRY(std::string blob, get_blob(layer.digest));
  return tar::unpack(blob);
}

Result<Image> Layout::append_layer(const Image& base, const vfs::Filesystem& layer_tree,
                                   std::string_view created_by, std::string_view tag) {
  Descriptor layer = put_layer(layer_tree);

  ImageConfig config = base.config;
  config.diff_ids.push_back(layer.digest);
  config.history.emplace_back(created_by);
  Descriptor config_descriptor =
      put_blob(json::serialize(config.to_json()), kMediaTypeConfig);

  Manifest manifest = base.manifest;
  manifest.config = config_descriptor;
  manifest.layers.push_back(layer);
  COMT_TRY(Digest manifest_digest, add_manifest(manifest, tag));
  return Image{manifest_digest, std::move(manifest), std::move(config)};
}

Result<Image> Layout::create_image(const ImageConfig& config,
                                   const std::vector<vfs::Filesystem>& layers,
                                   std::string_view tag) {
  Manifest manifest;
  ImageConfig stored = config;
  stored.diff_ids.clear();
  for (const vfs::Filesystem& tree : layers) {
    Descriptor layer = put_layer(tree);
    stored.diff_ids.push_back(layer.digest);
    manifest.layers.push_back(layer);
  }
  // Preserve provided history if it matches the layer count; otherwise
  // synthesize one line per layer.
  if (config.history.size() == layers.size()) {
    stored.history = config.history;
  } else {
    stored.history.assign(layers.size(), "layer");
  }
  manifest.config = put_blob(json::serialize(stored.to_json()), kMediaTypeConfig);
  COMT_TRY(Digest manifest_digest, add_manifest(manifest, tag));
  return Image{manifest_digest, std::move(manifest), std::move(stored)};
}

json::Value Layout::index_json() const { return index_json_impl(/*lenient=*/false); }

json::Value Layout::index_json_impl(bool lenient) const {
  json::Array manifests;
  for (const auto& [tag, digest] : index_) {
    auto blob_size = blobs_.size(digest.value);
    // The strict path is the API contract (an index must reference stored
    // manifests); the lenient path serves persist_index, which must be able
    // to write through an index fsck has yet to cut dangling tags from.
    if (!lenient) COMT_ASSERT(blob_size.ok(), "index references missing manifest blob");
    Descriptor descriptor;
    descriptor.media_type = std::string(kMediaTypeManifest);
    descriptor.digest = digest;
    descriptor.size = blob_size.ok() ? blob_size.value() : 0;
    descriptor.annotations[std::string(kRefNameAnnotation)] = tag;
    manifests.push_back(descriptor.to_json());
  }
  json::Object object;
  object.emplace_back("schemaVersion", json::Value(2));
  object.emplace_back("mediaType", json::Value(kMediaTypeIndex));
  object.emplace_back("manifests", json::Value(std::move(manifests)));
  return json::Value(std::move(object));
}

Status Layout::fsck() const {
  for (const Digest& digest : blob_digests()) {
    COMT_TRY(std::string blob, blobs_.get_unverified(digest.value));
    if (Digest::of_blob(blob) != digest) {
      return make_error(Errc::corrupt, "blob content does not match digest " + digest.value);
    }
  }
  for (const auto& [tag, digest] : index_) {
    if (!has_blob(digest)) {
      return make_error(Errc::corrupt, "index tag '" + tag + "' references missing blob");
    }
  }
  return Status::success();
}

}  // namespace comt::oci
