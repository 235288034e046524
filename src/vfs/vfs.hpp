// In-memory POSIX-ish filesystem.
//
// Container root filesystems, layer contents and build trees are all
// Filesystem values. Layer mechanics (OCI whiteouts, overlay application,
// diffing) live here because they are filesystem-tree operations; tar
// serialization lives in src/tar.
//
// Copying a Filesystem is cheap: nodes are immutable and shared between
// copies (structural sharing / copy-on-write at node granularity), so a
// snapshot of a multi-megabyte rootfs copies one pointer per path instead of
// the file bytes. Every mutation replaces whole nodes — a published node is
// never edited in place — which is what lets the rebuild engine hand one
// immutable snapshot to many concurrent readers (see docs/PERFORMANCE.md).
// Mutating a Filesystem object while another thread reads that same object
// is still a race, exactly as before; distinct copies never alias mutable
// state.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace comt::vfs {

enum class NodeType { regular, directory, symlink };

/// One filesystem node. Regular files own their content; symlinks own their
/// target string; directories carry only metadata (children are implied by
/// the path map). Nodes are immutable once published into a Filesystem.
struct Node {
  NodeType type = NodeType::regular;
  std::string content;      ///< regular: file bytes; symlink: link target
  std::uint32_t mode = 0644;  ///< permission bits (0755 default for dirs)
  bool executable() const { return (mode & 0111) != 0; }

  /// Lowercase-hex SHA-256 of `content`, computed at most once and kept with
  /// the node, so every Filesystem sharing the node shares it. Safe from
  /// several threads at once: the first caller hashes, the others wait for
  /// its result. Call it on nodes whose content no longer changes — every
  /// node a Filesystem holds.
  std::string digest() const;

  /// Type, content and mode; the kept digest does not count.
  bool operator==(const Node& other) const {
    return type == other.type && content == other.content && mode == other.mode;
  }

 private:
  /// Node::digest()'s memo. A copy of a node may still change its content,
  /// so it starts without one.
  class DigestMemo {
   public:
    DigestMemo() = default;
    DigestMemo(const DigestMemo&) {}
    DigestMemo& operator=(const DigestMemo&);
    std::string get(std::string_view content) const;

   private:
    enum : int { kEmpty, kHashing, kReady };
    mutable std::atomic<int> state_{kEmpty};
    mutable std::array<std::uint8_t, 32> bytes_{};
  };
  DigestMemo digest_;
};

/// OCI whiteout filename prefix ("deleted in this layer").
inline constexpr std::string_view kWhiteoutPrefix = ".wh.";
/// OCI opaque-directory marker ("hide all lower-layer content of this dir").
inline constexpr std::string_view kOpaqueMarker = ".wh..wh..opq";

/// An in-memory filesystem tree. Paths are normalized absolute paths
/// ("/usr/bin/gcc"); the root directory "/" always exists. Maintained
/// invariant: every node's parent directories exist as directory nodes.
class Filesystem {
 public:
  Filesystem();

  // -- queries ---------------------------------------------------------------

  bool exists(std::string_view path) const;
  bool is_directory(std::string_view path) const;
  bool is_regular(std::string_view path) const;
  bool is_symlink(std::string_view path) const;

  /// Node at exactly `path` (no symlink following); nullptr when absent.
  /// The pointer stays valid until this Filesystem replaces or removes the
  /// node (copies of the Filesystem keep the underlying node alive).
  const Node* lookup(std::string_view path) const;

  /// Resolves symlinks in every component (bounded chain length) and returns
  /// the final normalized path.
  Result<std::string> resolve(std::string_view path) const;

  /// Reads a regular file, following symlinks.
  Result<std::string> read_file(std::string_view path) const;

  /// Lowercase-hex SHA-256 of the regular file at `path`, following
  /// symlinks, with read_file's errors: the node's kept Node::digest(), so
  /// a file is hashed once however many copies of this tree ask.
  Result<std::string> digest(std::string_view path) const;

  /// Immediate children names of a directory, sorted.
  Result<std::vector<std::string>> list_directory(std::string_view path) const;

  /// All paths except "/", sorted (parents before children).
  std::vector<std::string> all_paths() const;

  /// Number of nodes excluding the root.
  std::size_t node_count() const { return nodes_.size() - 1; }

  /// Sum of regular-file content sizes, in bytes.
  std::uint64_t total_file_bytes() const;

  // -- mutations ---------------------------------------------------------------

  /// Creates `path` and any missing ancestors as directories.
  Status make_directories(std::string_view path, std::uint32_t mode = 0755);

  /// Writes a regular file, creating ancestors. Overwrites an existing
  /// regular file; fails if `path` is an existing directory.
  Status write_file(std::string_view path, std::string content, std::uint32_t mode = 0644);

  /// Creates a symlink node whose content is `target`.
  Status make_symlink(std::string_view path, std::string target);

  /// Removes a node; directories are removed recursively.
  Status remove(std::string_view path);

  /// Renames `from` to `to` (subtree included).
  Status rename(std::string_view from, std::string_view to);

  /// Copies the subtree rooted at `source` (in `other`) to `dest` here.
  /// If `source` is a directory its contents land under `dest`; if a file,
  /// `dest` names the new file. Content is shared, not duplicated.
  Status copy_from(const Filesystem& other, std::string_view source, std::string_view dest);

  /// Visits every node in path order. Return false from the visitor to stop.
  void walk(const std::function<bool(const std::string&, const Node&)>& visit) const;

  /// Structural equality: same paths, node-for-node equal. Nodes shared
  /// between the two filesystems compare by pointer, so diffing a snapshot
  /// against its source is near-free.
  bool operator==(const Filesystem& other) const;

 private:
  using NodeRef = std::shared_ptr<const Node>;

  // Binds the layer's own file and symlink nodes, as copy_from does.
  friend Status apply_layer(Filesystem& base, const Filesystem& layer);

  static NodeRef make_node(NodeType type, std::string content, std::uint32_t mode);
  /// The regular file at `path`, following symlinks.
  Result<const Node*> regular_file(std::string_view path) const;
  Status insert_parents(std::string_view path);

  // Key: normalized absolute path. Values are shared with copies of this
  // Filesystem; mutations bind a fresh node, never edit through the pointer.
  std::map<std::string, NodeRef> nodes_;
};

/// A changeset between two filesystems, in OCI layer semantics: `upper`
/// contains added/modified nodes, plus whiteout marker files for deletions.
struct LayerDiff {
  Filesystem upper;
  std::size_t added = 0;
  std::size_t modified = 0;
  std::size_t deleted = 0;
};

/// Computes the OCI-style diff taking `base` to `target`.
LayerDiff diff(const Filesystem& base, const Filesystem& target);

/// Applies an OCI layer tree (with whiteout markers) on top of `base`,
/// in place. This is the "POSIX file system simulator" role of §4.5: the
/// final image filesystem is the fold of apply_layer over all layers.
/// Regular files and symlinks are bound, not copied: afterwards `base`
/// shares the layer's nodes, so applying an unpacked layer costs one
/// pointer per path whatever its byte size.
Status apply_layer(Filesystem& base, const Filesystem& layer);

}  // namespace comt::vfs
