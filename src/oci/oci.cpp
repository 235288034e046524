#include "oci/oci.hpp"

#include <typeinfo>
#include <utility>

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

namespace detail {

/// What is known of one stored buffer. The slot holds the buffer it is bound
/// to, so none of it can ever speak for other bytes (nor can that buffer be
/// freed and its address reused while the slot lives). The mutex is held
/// while the tree unpacks and while the memo derives or parses, so
/// concurrent readers unpack and derive a buffer once.
struct LayerSlot {
  explicit LayerSlot(std::shared_ptr<const std::string> bytes, Digest proof = {})
      : bytes(std::move(bytes)), proof(std::move(proof)) {}

  bool proven(const Digest& digest) {
    std::lock_guard<std::mutex> lock(mutex);
    return proof == digest;
  }

  void prove(const Digest& digest) {
    std::lock_guard<std::mutex> lock(mutex);
    proof = digest;
  }

  Result<std::shared_ptr<const vfs::Filesystem>> tree() {
    std::lock_guard<std::mutex> lock(mutex);
    if (unpacked == nullptr) {
      COMT_TRY(vfs::Filesystem fresh, tar::unpack(*bytes));
      unpacked = std::make_shared<const vfs::Filesystem>(std::move(fresh));
    }
    return unpacked;
  }

  /// The kept memo when it is of type `kind`; otherwise `derive()`, which is
  /// kept when it succeeds and the slot keeps no memo yet.
  Result<std::shared_ptr<const void>> memoize(
      std::type_index kind, const std::function<Result<std::shared_ptr<const void>>()>& derive) {
    std::lock_guard<std::mutex> lock(mutex);
    if (memo_kind == kind) return memo;
    COMT_TRY(std::shared_ptr<const void> derived, derive());
    if (!memo_kind.has_value()) {
      memo_kind = kind;
      memo = derived;
    }
    return derived;
  }

  const std::shared_ptr<const std::string> bytes;
  std::mutex mutex;
  Digest proof;  ///< the digest `bytes` hashed to when checked; empty until then
  std::shared_ptr<const vfs::Filesystem> unpacked;  ///< null until first use
  std::optional<std::type_index> memo_kind;  ///< the type of `memo`, once kept
  std::shared_ptr<const void> memo;
};

}  // namespace detail

Status SharedBlob::verify(const Digest& digest) {
  const bool proven =
      !digest.empty() && (slot_ != nullptr ? slot_->proven(digest) : verified_ == digest);
  if (proven) return Status::success();
  if (Digest::of_blob(*bytes_) != digest) {
    return make_error(Errc::corrupt, "blob content does not match digest " + digest.value);
  }
  if (slot_ != nullptr) {
    slot_->prove(digest);
  } else {
    verified_ = digest;
  }
  return Status::success();
}

Layout::LayerTrees::LayerTrees(const LayerTrees& other) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  slots_ = other.slots_;
}

Layout::LayerTrees::LayerTrees(LayerTrees&& other) noexcept
    : slots_(std::move(other.slots_)) {}

Layout::LayerTrees& Layout::LayerTrees::operator=(LayerTrees&& other) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_ = std::move(other.slots_);
  return *this;
}

Layout::Slot Layout::LayerTrees::slot(const std::string& digest,
                                      const std::shared_ptr<const std::string>& bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& kept = slots_[digest];
  if (kept == nullptr || kept->bytes != bytes) kept = std::make_shared<detail::LayerSlot>(bytes);
  return kept;
}

void Layout::LayerTrees::keep(const std::string& digest, Slot slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.insert_or_assign(digest, std::move(slot));
}

void Layout::LayerTrees::drop(const std::string& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.erase(digest);
}

void Layout::LayerTrees::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
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

void Layout::check_torn_put(const std::string& digest, std::string_view bytes) {
  if (faults_ == nullptr) return;
  if (auto torn = faults_->check_torn(kBlobPutSite, bytes.size()); torn.has_value()) {
    // The medium persisted a prefix under the full content's digest — the
    // classic torn blob fsck must find — and the process dies here.
    COMT_ASSERT(blobs_.put_at(digest, std::string(bytes.substr(0, *torn))).ok(),
                "layout: torn blob write failed");
    trees_.drop(digest);
    throw support::CrashInjected{std::string(kBlobPutSite)};
  }
}

template <typename T>
Descriptor Layout::put_parsed(std::string blob, std::string_view media_type,
                              std::shared_ptr<const T> parsed) {
  Descriptor descriptor;
  descriptor.media_type = std::string(media_type);
  descriptor.digest = Digest::of_blob(blob);
  descriptor.size = blob.size();
  check_torn_put(descriptor.digest.value, blob);
  // Stored under the precomputed digest: a re-put of the same digest is
  // normally a no-op rewrite under content addressing — but it heals a blob
  // an earlier torn write left truncated under this digest.
  auto stored = std::make_shared<const std::string>(std::move(blob));
  COMT_ASSERT(blobs_.put_shared_at(descriptor.digest.value, stored).ok(),
              "layout: blob store put failed");
  if (attached_) {
    trees_.drop(descriptor.digest.value);
  } else {
    // The digest was just computed from this very buffer: its proof.
    auto slot = std::make_shared<detail::LayerSlot>(std::move(stored), descriptor.digest);
    if (parsed != nullptr) {
      slot->memo_kind = typeid(T);
      slot->memo = std::move(parsed);
    }
    trees_.keep(descriptor.digest.value, std::move(slot));
  }
  return descriptor;
}

Descriptor Layout::put_blob(std::string blob, std::string_view media_type) {
  return put_parsed<void>(std::move(blob), media_type, nullptr);
}

Descriptor Layout::put_config(const ImageConfig& config) {
  return put_parsed(json::serialize(config.to_json()), kMediaTypeConfig,
                    std::make_shared<const ImageConfig>(config));
}

Result<SharedBlob> Layout::share_blob(const Digest& digest) const {
  auto bytes = blobs_.get_shared(digest.value);
  if (!bytes.ok()) return make_error(Errc::not_found, "no such blob: " + digest.value);
  SharedBlob shared;
  shared.bytes_ = std::move(bytes).value();
  if (!attached_) shared.slot_ = trees_.slot(digest.value, shared.bytes_);
  return shared;
}

Status Layout::adopt_blob(const Descriptor& descriptor, SharedBlob shared) {
  COMT_TRY_STATUS(shared.verify(descriptor.digest));
  const std::string& digest = descriptor.digest.value;
  check_torn_put(digest, shared.bytes());
  COMT_TRY_STATUS(blobs_.put_shared_at(digest, shared.bytes_));
  if (attached_) {
    trees_.drop(digest);
  } else if (shared.slot_ != nullptr) {
    trees_.keep(digest, std::move(shared.slot_));
  } else {
    // Bytes no layout held before: their slot starts with the proof just
    // checked.
    trees_.keep(digest, std::make_shared<detail::LayerSlot>(std::move(shared.bytes_),
                                                            descriptor.digest));
  }
  return Status::success();
}

void Layout::set_blob_bytes(const Digest& digest, std::string bytes) {
  COMT_ASSERT(has_blob(digest), ("set_blob_bytes: no such blob: " + digest.value).c_str());
  COMT_ASSERT(blobs_.put_at(digest.value, std::move(bytes)).ok(),
              "set_blob_bytes: blob store put failed");
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
  const Descriptor descriptor = put_parsed(json::serialize(manifest.to_json()),
                                           kMediaTypeManifest,
                                           std::make_shared<const Manifest>(manifest));
  COMT_TRY_STATUS(tag_manifest(tag, descriptor.digest));
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

// An index mutation whose index.json write fails is undone, so the index in
// memory stays the one the backend holds.
Status Layout::tag_manifest(std::string_view tag, const Digest& manifest_digest) {
  for (auto& [existing_tag, digest] : index_) {
    if (existing_tag == tag) {
      Digest previous = std::exchange(digest, manifest_digest);
      Status persisted = persist_index();
      if (!persisted.ok()) digest = std::move(previous);
      return persisted;
    }
  }
  index_.emplace_back(std::string(tag), manifest_digest);
  Status persisted = persist_index();
  if (!persisted.ok()) index_.pop_back();
  return persisted;
}

Result<bool> Layout::remove_tag(std::string_view tag) {
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    if (it->first == tag) {
      const auto position = it - index_.begin();
      std::pair<std::string, Digest> removed = std::move(*it);
      index_.erase(it);
      Status persisted = persist_index();
      if (!persisted.ok()) {
        index_.insert(index_.begin() + position, std::move(removed));
        return persisted.error();
      }
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

template <typename T>
Result<std::shared_ptr<const T>> Layout::parsed_blob(const Digest& digest) const {
  COMT_TRY(SharedBlob shared, share_blob(digest));
  const std::string& bytes = shared.bytes();
  auto parse = [&bytes]() -> Result<std::shared_ptr<const void>> {
    COMT_TRY(json::Value document, json::parse(bytes));
    COMT_TRY(T value, T::from_json(document));
    return std::shared_ptr<const void>(std::make_shared<const T>(std::move(value)));
  };
  COMT_TRY(std::shared_ptr<const void> value,
           shared.slot_ != nullptr ? shared.slot_->memoize(typeid(T), parse) : parse());
  return std::static_pointer_cast<const T>(std::move(value));
}

Result<Image> Layout::load_image(const Digest& manifest_digest) const {
  COMT_TRY(std::shared_ptr<const Manifest> manifest, parsed_blob<Manifest>(manifest_digest));
  COMT_TRY(std::shared_ptr<const ImageConfig> config,
           parsed_blob<ImageConfig>(manifest->config.digest));
  return Image{manifest_digest, *manifest, *config};
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
  COMT_TRY(SharedBlob shared, share_blob(layer.digest));
  if (shared.slot_ != nullptr) return shared.slot_->tree();
  COMT_TRY(vfs::Filesystem unpacked, tar::unpack(shared.bytes()));
  return std::make_shared<const vfs::Filesystem>(std::move(unpacked));
}

Result<std::shared_ptr<const void>> Layout::layer_memo_impl(const Descriptor& layer,
                                                            std::type_index kind,
                                                            const Derive& derive) const {
  COMT_TRY(SharedBlob shared, share_blob(layer.digest));
  if (shared.slot_ == nullptr) {
    COMT_TRY(vfs::Filesystem unpacked, tar::unpack(shared.bytes()));
    return derive(unpacked);
  }
  COMT_TRY(Tree tree, shared.slot_->tree());
  return shared.slot_->memoize(kind, [&derive, &tree] { return derive(*tree); });
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

  Manifest manifest = base.manifest;
  manifest.config = put_config(config);
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
  manifest.config = put_config(stored);
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
