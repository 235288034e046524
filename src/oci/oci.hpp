// OCI image-spec data model: digests, descriptors, image configs, manifests,
// image indexes, and an in-memory OCI layout (content-addressed blob store +
// index.json). This is the substrate the coMtainer cache/rebuild layers are
// injected into; extended images are ordinary OCI images with extra layers
// and extra manifests tagged "+coM"/"+coMre", exactly as in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <typeindex>
#include <vector>

#include "json/json.hpp"
#include "store/cas.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "vfs/vfs.hpp"

namespace comt::oci {

/// Torn-write injection site checked on every Layout::put_blob.
inline constexpr std::string_view kBlobPutSite = "oci.blob.put";

// Key layout of a Layout inside its backing KvStore — identical to the file
// names of the OCI image-layout directory format, so an unframed DiskStore
// over an attached layout *is* a spec-conformant layout directory.
inline constexpr std::string_view kBlobKeyPrefix = "blobs/";
inline constexpr std::string_view kIndexKey = "index.json";
inline constexpr std::string_view kOciLayoutKey = "oci-layout";
inline constexpr std::string_view kOciLayoutContent = R"({"imageLayoutVersion":"1.0.0"})";

// Media types (OCI image-spec v1).
inline constexpr std::string_view kMediaTypeManifest =
    "application/vnd.oci.image.manifest.v1+json";
inline constexpr std::string_view kMediaTypeConfig =
    "application/vnd.oci.image.config.v1+json";
inline constexpr std::string_view kMediaTypeLayer =
    "application/vnd.oci.image.layer.v1.tar";
inline constexpr std::string_view kMediaTypeIndex =
    "application/vnd.oci.image.index.v1+json";
/// Annotation key carrying an image tag inside an index (OCI standard).
inline constexpr std::string_view kRefNameAnnotation =
    "org.opencontainers.image.ref.name";

/// A content digest, "sha256:<64 hex>".
struct Digest {
  std::string value;

  static Digest of_blob(std::string_view blob);
  bool empty() const { return value.empty(); }
  bool operator==(const Digest&) const = default;
  auto operator<=>(const Digest&) const = default;
};

/// Reference to a blob: media type + digest + size.
struct Descriptor {
  std::string media_type;
  Digest digest;
  std::uint64_t size = 0;
  std::map<std::string, std::string> annotations;

  json::Value to_json() const;
  static Result<Descriptor> from_json(const json::Value& value);
};

/// Execution parameters recorded in an image config.
struct RuntimeConfig {
  std::vector<std::string> env;         ///< "KEY=value" entries
  std::vector<std::string> entrypoint;  ///< argv prefix
  std::vector<std::string> cmd;         ///< default argv suffix
  std::string working_dir = "/";
  std::map<std::string, std::string> labels;
};

/// OCI image config blob.
struct ImageConfig {
  std::string architecture = "amd64";
  std::string os = "linux";
  RuntimeConfig config;
  std::vector<Digest> diff_ids;         ///< uncompressed layer digests, in order
  std::vector<std::string> history;     ///< one created_by line per layer

  json::Value to_json() const;
  static Result<ImageConfig> from_json(const json::Value& value);
};

/// OCI image manifest blob.
struct Manifest {
  Descriptor config;
  std::vector<Descriptor> layers;
  std::map<std::string, std::string> annotations;

  json::Value to_json() const;
  static Result<Manifest> from_json(const json::Value& value);
};

/// A manifest + its config, resolved out of a layout.
struct Image {
  Digest manifest_digest;
  Manifest manifest;
  ImageConfig config;
};

namespace detail {
/// What is known of one stored buffer (defined in oci.cpp): the digest it
/// was proven against, its unpacked tree, and one value derived from it.
struct LayerSlot;
}  // namespace detail

/// A stored blob handed from one layout to another by reference
/// (Layout::share_blob, then Layout::adopt_blob): the immutable buffer, and
/// the slot bound to it, which carries the buffer's proof and its unpacked
/// tree, so a hash or an unpack done by any layout that holds the buffer
/// serves every other one. A blob shared by an attached layout is a fresh
/// copy of its bytes and has no slot, as has one made from bytes.
class SharedBlob {
 public:
  /// Bytes no layout holds yet (a blob reassembled from chunks): no slot.
  /// `proven` is the digest the caller already checked them against (a
  /// chunk reassembly's end-to-end check); verify() against it hashes
  /// nothing, and against any other digest hashes the bytes.
  explicit SharedBlob(std::string bytes, Digest proven = {})
      : bytes_(std::make_shared<const std::string>(std::move(bytes))),
        verified_(std::move(proven)) {}

  const std::string& bytes() const { return *bytes_; }

  /// Checks the bytes' SHA-256 against `digest`: Errc::corrupt, naming the
  /// digest, when they differ. A passed check is the buffer's proof: it is
  /// kept in the buffer's slot (in this handle when it has none), so no
  /// holder of the buffer hashes it again for the same digest.
  Status verify(const Digest& digest);

 private:
  friend class Layout;
  SharedBlob() = default;  ///< only Layout::share_blob makes one
  std::shared_ptr<const std::string> bytes_;
  std::shared_ptr<detail::LayerSlot> slot_;
  Digest verified_;  ///< a slotless handle's proof: the digest it was checked against
};

/// An OCI layout: content-addressed blobs plus an index mapping ref-name
/// tags to manifests. Blob bytes live in a store::CasStore — a MemStore by
/// default (pure in-memory, the historical behaviour), or any backend handed
/// to attach() (a DiskStore makes this the on-disk oci-layout directory the
/// paper's workflow mounts into containers at /.coMtainer/io, maintained
/// live instead of via one-shot save_layout).
///
/// An in-memory layout keeps what it learns of each stored buffer in a slot
/// bound to that buffer: the digest the buffer was proven against (put_blob
/// proves what it stores, adopt_blob what it checked), its unpacked tree,
/// so the next flatten binds the kept tree's nodes instead of un-tarring the
/// bytes again, and one value derived from the tree (layer_memo). A slot
/// never speaks for other bytes: every read takes the slot of the buffer
/// stored at that moment, so flatten always returns the fold of apply_layer
/// over tar::unpack of the bytes stored now, damaged bytes included, and a
/// proof never covers bytes it was not computed from. Copies and adopters of
/// a buffer share its slot; a put binds a fresh slot to the digest it
/// replaces, a torn put and a removal drop the digest's slot. An attached
/// layout keeps no slots: another writer can change its backend, so every
/// read from it is hashed.
class Layout {
 public:
  Layout();

  /// Copies are always private in-memory snapshots. A copy of an in-memory
  /// layout copies its MemStore, sharing every blob buffer and every layer
  /// slot, so copying costs a pointer per blob, not a copy per byte;
  /// writes on either side stay invisible to the other. A copy of an
  /// attached layout copies the blob bytes into a fresh MemStore. This is
  /// what lets every service job work on its own copy of a shared base
  /// layout.
  Layout(const Layout& other);
  Layout& operator=(const Layout& other);
  Layout(Layout&&) = default;
  Layout& operator=(Layout&&) = default;

  /// Re-homes the layout onto `backend` (e.g. a store::DiskStore over an OCI
  /// layout directory) and makes it durable: any index already present in
  /// the backend is loaded first, blobs this layout holds in memory are
  /// migrated in, and from here on every blob put and index mutation writes
  /// through ("blobs/sha256/<hex>", "index.json", "oci-layout" keys — the
  /// standard directory shape when the backend is an unframed DiskStore).
  /// Drops every kept layer tree.
  Status attach(std::shared_ptr<store::KvStore> backend);

  /// Stores a blob and returns its descriptor. Re-putting a digest replaces
  /// the stored bytes, so writing the true content heals a previously torn
  /// blob under the same digest. The digest computed here is the stored
  /// buffer's proof.
  Descriptor put_blob(std::string blob, std::string_view media_type);

  /// Attaches torn-write injection to put_blob: when an armed schedule fires
  /// the store keeps only a prefix of the bytes under the full content's
  /// digest — a partially flushed blob file — and CrashInjected is thrown.
  /// Pass nullptr to detach.
  void set_fault_injector(support::FaultInjector* faults) { faults_ = faults; }

  /// Overwrites the bytes stored under `digest` without re-hashing — the
  /// in-memory stand-in for on-disk bit rot under a content address. Like
  /// real rot it tells nobody: the slot kept for the old buffer stays, and
  /// only its binding to that buffer keeps its proof and tree off the new
  /// bytes. fsck tests corrupt blobs through this; no production path calls
  /// it. The blob must already exist.
  void set_blob_bytes(const Digest& digest, std::string bytes);

  Result<std::string> get_blob(const Digest& digest) const;
  bool has_blob(const Digest& digest) const { return blobs_.contains(digest.value); }
  std::size_t blob_count() const { return blobs_.count(); }

  /// Total bytes across all stored blobs.
  std::uint64_t total_blob_bytes() const;

  /// Digests of every stored blob (sorted; the map order).
  std::vector<Digest> blob_digests() const;

  /// The stored buffer of `digest` and its layer slot, for adopt_blob into
  /// another layout (Errc::not_found when absent). Unverified, like
  /// get_blob. An attached layout reads the bytes into a fresh buffer and
  /// hands over no slot. Safe to call from several threads at once.
  Result<SharedBlob> share_blob(const Digest& digest) const;

  /// Stores a shared blob under `descriptor.digest`, only if its SHA-256
  /// equals that digest; otherwise returns Errc::corrupt and stores nothing.
  /// A buffer already proven against that digest is not hashed again. An
  /// in-memory layout keeps the buffer and its slot, which now carries the
  /// proof; an attached one writes the bytes. Replaces any bytes stored under
  /// the digest (a heal, like put_blob), and checks kBlobPutSite exactly
  /// once, as put_blob does.
  Status adopt_blob(const Descriptor& descriptor, SharedBlob shared);

  /// Drops a blob from the store. Returns the bytes freed, 0 when absent or
  /// pinned. The caller owns referential integrity — a registry
  /// garbage-collecting unreferenced blobs, never a reachable one.
  std::uint64_t remove_blob(const Digest& digest);

  /// Pins `digest` against remove_blob and fsck-repair quarantine. Pins are
  /// refcounted: a blob stays protected until every pin is released. Live
  /// journaled rebuilds pin the blobs they still name so GC never reclaims
  /// state a resume would need.
  void pin_blob(const Digest& digest);

  /// Releases one pin on `digest` (no-op when unpinned).
  void unpin_blob(const Digest& digest);

  bool is_pinned(const Digest& digest) const { return pins_.count(digest) != 0; }

  /// Serializes `manifest`, stores it, and records `tag` in the index
  /// (replacing any previous manifest with the same tag).
  Result<Digest> add_manifest(const Manifest& manifest, std::string_view tag);

  /// All tags in the index, in insertion order.
  std::vector<std::string> tags() const;

  /// The index as (tag, manifest digest) pairs, in insertion order.
  std::vector<std::pair<std::string, Digest>> index_entries() const;

  /// Drops `tag` from the index (the manifest blob stays). Returns whether
  /// the tag existed. fsck repair uses this to cut dangling references.
  bool remove_tag(std::string_view tag);

  /// Records `tag` -> `manifest_digest` in the index without re-serializing a
  /// manifest (replacing any previous entry for the tag). The registry mirrors
  /// its reference map into its backing store's index with this, so fsck sees
  /// which blobs are reachable.
  void tag_manifest(std::string_view tag, const Digest& manifest_digest);

  Result<Image> find_image(std::string_view tag) const;
  Result<Image> load_image(const Digest& manifest_digest) const;

  /// Applies all layers of `image` in order over an empty root — the final
  /// container filesystem (the "POSIX file system simulator" of §4.5).
  /// Reuses each layer's kept tree; an in-memory layout unpacks a layer
  /// straight from its stored buffer, once, and keeps the tree in the
  /// buffer's slot. Safe to call from several threads at once.
  Result<vfs::Filesystem> flatten(const Image& image) const;

  /// The unpacked tree of `layer`, as flatten applies it: kept in the slot
  /// of its stored buffer and unpacked on first use (an attached layout
  /// unpacks a fresh copy every time). Safe from several threads at once.
  Result<std::shared_ptr<const vfs::Filesystem>> layer_tree(const Descriptor& layer) const;

  /// `derive` of `layer`'s unpacked tree, kept in the slot of the layer's
  /// stored buffer: computed at most once per buffer, and shared by every
  /// layout holding the buffer. A slot keeps one value, of the type the
  /// first caller asked for; an attached layout keeps none, so there every
  /// call derives afresh. A failed derive is returned and not kept.
  template <typename T>
  Result<std::shared_ptr<const T>> layer_memo(
      const Descriptor& layer,
      const std::function<Result<std::shared_ptr<const T>>(const vfs::Filesystem&)>& derive)
      const {
    COMT_TRY(std::shared_ptr<const void> kept,
             layer_memo_impl(layer, typeid(T),
                             [&derive](const vfs::Filesystem& tree)
                                 -> Result<std::shared_ptr<const void>> {
                               COMT_TRY(std::shared_ptr<const T> value, derive(tree));
                               return std::shared_ptr<const void>(std::move(value));
                             }));
    return std::static_pointer_cast<const T>(std::move(kept));
  }

  /// attach() ran: blobs live in an external backend, and no slot is kept.
  bool attached() const { return attached_; }

  /// Packs `tree` as a tar layer blob and returns its layer descriptor.
  Descriptor put_layer(const vfs::Filesystem& tree);

  /// Reads a layer blob back into a tree.
  Result<vfs::Filesystem> read_layer(const Descriptor& layer) const;

  /// Derives a new image from `base` by appending one layer, and tags it.
  /// `created_by` goes into the config history. Returns the new image.
  Result<Image> append_layer(const Image& base, const vfs::Filesystem& layer_tree,
                             std::string_view created_by, std::string_view tag);

  /// Builds a brand-new single-or-multi-layer image from scratch.
  Result<Image> create_image(const ImageConfig& config,
                             const std::vector<vfs::Filesystem>& layers,
                             std::string_view tag);

  /// index.json document (for inspection / serialization round-trips).
  json::Value index_json() const;

  /// Verifies every blob's content against its digest key and every index
  /// entry against the blob store. First problem wins; fsck.hpp's
  /// oci::fsck() gives the full classified report.
  Status fsck() const;

 private:
  using Tree = std::shared_ptr<const vfs::Filesystem>;
  using Slot = std::shared_ptr<detail::LayerSlot>;

  /// Layer slots by digest, shared with copies and adopters. Each slot is
  /// bound to the buffer stored under its digest when it was made; one
  /// mutex guards the map, and each slot's own mutex its tree.
  class LayerTrees {
   public:
    LayerTrees() = default;
    LayerTrees(const LayerTrees& other);
    LayerTrees(LayerTrees&& other) noexcept;
    LayerTrees& operator=(LayerTrees&& other) noexcept;

    /// The slot of `digest` bound to `bytes`: the kept one, or a new one,
    /// kept from now on, when there is none or it is bound to other bytes.
    Slot slot(const std::string& digest, const std::shared_ptr<const std::string>& bytes);
    /// Keeps `slot` for `digest`: an adopted blob's, or a put blob's.
    void keep(const std::string& digest, Slot slot);
    void drop(const std::string& digest);
    void clear();

   private:
    mutable std::mutex mutex_;
    std::map<std::string, Slot> slots_;
  };

  void copy_blobs_from(const Layout& other);
  using Derive = std::function<Result<std::shared_ptr<const void>>(const vfs::Filesystem&)>;
  Result<std::shared_ptr<const void>> layer_memo_impl(const Descriptor& layer,
                                                      std::type_index kind,
                                                      const Derive& derive) const;
  /// The kBlobPutSite check of a blob write: when an armed schedule fires,
  /// stores a torn prefix of `bytes` under `digest` and throws
  /// CrashInjected.
  void check_torn_put(const std::string& digest, std::string_view bytes);
  json::Value index_json_impl(bool lenient) const;
  /// Writes "oci-layout" + "index.json" through the backend when attached.
  Status persist_index();

  store::CasStore blobs_;
  // tag -> manifest digest, in insertion order (index.json manifest list).
  std::vector<std::pair<std::string, Digest>> index_;
  std::map<Digest, int> pins_;  // digest -> pin refcount (GC exclusion set)
  support::FaultInjector* faults_ = nullptr;
  /// attach() ran: blobs_ is an external backend and index mutations write
  /// through. Otherwise blobs_ is this layout's own MemStore.
  bool attached_ = false;
  mutable LayerTrees trees_;
};

}  // namespace comt::oci
