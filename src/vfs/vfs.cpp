#include "vfs/vfs.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace comt::vfs {
namespace {

/// True if `path` is inside the directory `dir` (not equal to it).
bool is_under(std::string_view path, std::string_view dir) {
  if (dir == "/") return path.size() > 1;
  return path.size() > dir.size() && starts_with(path, dir) && path[dir.size()] == '/';
}

/// The last component of a normalized path, without allocating.
std::string_view basename_view(std::string_view path) {
  return path.substr(path.rfind('/') + 1);
}

std::string whiteout_path(std::string_view deleted) {
  return path_join(path_dirname(deleted),
                   std::string(kWhiteoutPrefix) + path_basename(deleted));
}

}  // namespace

Filesystem::NodeRef Filesystem::make_node(NodeType type, std::string content,
                                          std::uint32_t mode) {
  auto node = std::make_shared<Node>();
  node->type = type;
  // Nodes live as long as any snapshot holding them, so drop the spare
  // capacity a string built by appends carries (up to 2x its size).
  node->content = std::move(content);
  node->content.shrink_to_fit();
  node->mode = mode;
  return node;
}

Filesystem::Filesystem() {
  nodes_.emplace("/", make_node(NodeType::directory, "", 0755));
}

bool Filesystem::exists(std::string_view path) const { return lookup(path) != nullptr; }

bool Filesystem::is_directory(std::string_view path) const {
  const Node* node = lookup(path);
  return node != nullptr && node->type == NodeType::directory;
}

bool Filesystem::is_regular(std::string_view path) const {
  const Node* node = lookup(path);
  return node != nullptr && node->type == NodeType::regular;
}

bool Filesystem::is_symlink(std::string_view path) const {
  const Node* node = lookup(path);
  return node != nullptr && node->type == NodeType::symlink;
}

const Node* Filesystem::lookup(std::string_view path) const {
  auto it = nodes_.find(normalize_path(path));
  return it == nodes_.end() ? nullptr : it->second.get();
}

Result<std::string> Filesystem::resolve(std::string_view path) const {
  std::string current = normalize_path(path);
  // Bounded symlink chain to catch cycles (Linux uses 40).
  for (int hops = 0; hops < 40; ++hops) {
    auto it = nodes_.find(current);
    if (it == nodes_.end() || it->second->type != NodeType::symlink) return current;
    const std::string& target = it->second->content;
    current = target.front() == '/' ? normalize_path(target)
                                    : path_join(path_dirname(current), target);
  }
  return make_error(Errc::corrupt, "symlink loop resolving " + std::string(path));
}

Result<std::string> Filesystem::read_file(std::string_view path) const {
  COMT_TRY(std::string real, resolve(path));
  const Node* node = lookup(real);
  if (node == nullptr) return make_error(Errc::not_found, "no such file: " + real);
  if (node->type != NodeType::regular) {
    return make_error(Errc::invalid_argument, "not a regular file: " + real);
  }
  return node->content;
}

Result<std::vector<std::string>> Filesystem::list_directory(std::string_view path) const {
  COMT_TRY(std::string real, resolve(path));
  const Node* node = lookup(real);
  if (node == nullptr) return make_error(Errc::not_found, "no such directory: " + real);
  if (node->type != NodeType::directory) {
    return make_error(Errc::invalid_argument, "not a directory: " + real);
  }
  std::vector<std::string> names;
  std::string prefix = real == "/" ? "/" : real + "/";
  for (auto it = nodes_.upper_bound(prefix); it != nodes_.end(); ++it) {
    const std::string& candidate = it->first;
    if (!starts_with(candidate, prefix)) break;
    std::string_view rest = std::string_view(candidate).substr(prefix.size());
    if (rest.find('/') == std::string_view::npos) names.emplace_back(rest);
  }
  return names;
}

std::vector<std::string> Filesystem::all_paths() const {
  std::vector<std::string> paths;
  paths.reserve(nodes_.size());
  for (const auto& [path, node] : nodes_) {
    if (path != "/") paths.push_back(path);
  }
  return paths;
}

std::uint64_t Filesystem::total_file_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [path, node] : nodes_) {
    if (node->type == NodeType::regular) total += node->content.size();
  }
  return total;
}

Status Filesystem::insert_parents(std::string_view path) {
  std::string dir = path_dirname(path);
  if (dir == "/" || dir == ".") return Status::success();
  auto it = nodes_.find(dir);
  if (it != nodes_.end()) {
    if (it->second->type != NodeType::directory) {
      return make_error(Errc::invalid_argument, "parent is not a directory: " + dir);
    }
    return Status::success();
  }
  COMT_TRY_STATUS(insert_parents(dir));
  nodes_.emplace(std::move(dir), make_node(NodeType::directory, "", 0755));
  return Status::success();
}

Status Filesystem::make_directories(std::string_view path, std::uint32_t mode) {
  std::string normal = normalize_path(path);
  if (normal == "/") return Status::success();
  auto it = nodes_.find(normal);
  if (it != nodes_.end()) {
    if (it->second->type != NodeType::directory) {
      return make_error(Errc::already_exists, "exists and is not a directory: " + normal);
    }
    return Status::success();
  }
  COMT_TRY_STATUS(insert_parents(normal));
  nodes_.emplace(std::move(normal), make_node(NodeType::directory, "", mode));
  return Status::success();
}

Status Filesystem::write_file(std::string_view path, std::string content, std::uint32_t mode) {
  std::string normal = normalize_path(path);
  auto it = nodes_.find(normal);
  if (it != nodes_.end() && it->second->type == NodeType::directory) {
    return make_error(Errc::already_exists, "is a directory: " + normal);
  }
  COMT_TRY_STATUS(insert_parents(normal));
  // A fresh node, never an in-place edit: snapshots sharing the old node keep
  // reading the old bytes.
  nodes_[normal] = make_node(NodeType::regular, std::move(content), mode);
  return Status::success();
}

Status Filesystem::make_symlink(std::string_view path, std::string target) {
  std::string normal = normalize_path(path);
  auto it = nodes_.find(normal);
  if (it != nodes_.end() && it->second->type == NodeType::directory) {
    return make_error(Errc::already_exists, "is a directory: " + normal);
  }
  COMT_TRY_STATUS(insert_parents(normal));
  nodes_[normal] = make_node(NodeType::symlink, std::move(target), 0777);
  return Status::success();
}

Status Filesystem::remove(std::string_view path) {
  std::string normal = normalize_path(path);
  if (normal == "/") return make_error(Errc::invalid_argument, "cannot remove /");
  auto it = nodes_.find(normal);
  if (it == nodes_.end()) return make_error(Errc::not_found, "no such path: " + normal);
  // Erase the node and, for directories, the whole subtree.
  it = nodes_.erase(it);
  while (it != nodes_.end() && is_under(it->first, normal)) it = nodes_.erase(it);
  return Status::success();
}

Status Filesystem::rename(std::string_view from, std::string_view to) {
  std::string src = normalize_path(from);
  std::string dst = normalize_path(to);
  auto it = nodes_.find(src);
  if (it == nodes_.end()) return make_error(Errc::not_found, "no such path: " + src);
  if (src == dst) return Status::success();
  if (dst == src || is_under(dst, src)) {
    return make_error(Errc::invalid_argument, "cannot rename a directory into itself");
  }
  COMT_TRY_STATUS(insert_parents(dst));
  // Collect the subtree first; mutating the map invalidates range iteration.
  // Node pointers are shared, so a rename never copies file content.
  std::vector<std::pair<std::string, NodeRef>> moved;
  moved.emplace_back(dst, it->second);
  for (auto sub = std::next(it); sub != nodes_.end() && is_under(sub->first, src); ++sub) {
    moved.emplace_back(dst + sub->first.substr(src.size()), sub->second);
  }
  COMT_TRY_STATUS(remove(src));
  if (nodes_.count(dst) != 0) COMT_TRY_STATUS(remove(dst));
  for (auto& [path, node] : moved) nodes_[std::move(path)] = std::move(node);
  return Status::success();
}

Status Filesystem::copy_from(const Filesystem& other, std::string_view source,
                             std::string_view dest) {
  COMT_TRY(std::string src, other.resolve(source));
  auto root_it = other.nodes_.find(src);
  if (root_it == other.nodes_.end()) {
    return make_error(Errc::not_found, "no such path: " + src);
  }
  const NodeRef& root = root_it->second;
  std::string dst = normalize_path(dest);
  if (root->type != NodeType::directory) {
    // Copying a file onto an existing directory places it inside (cp semantics).
    if (is_directory(dst)) dst = path_join(dst, path_basename(src));
    COMT_TRY_STATUS(insert_parents(dst));
    nodes_[dst] = root;  // share, don't duplicate
    return Status::success();
  }
  COMT_TRY_STATUS(make_directories(dst));
  std::string prefix = src == "/" ? "/" : src + "/";
  for (auto it = other.nodes_.upper_bound(prefix); it != other.nodes_.end(); ++it) {
    if (!starts_with(it->first, prefix)) break;
    std::string target = path_join(dst, it->first.substr(prefix.size()));
    COMT_TRY_STATUS(insert_parents(target));
    nodes_[target] = it->second;  // share, don't duplicate
  }
  return Status::success();
}

void Filesystem::walk(const std::function<bool(const std::string&, const Node&)>& visit) const {
  for (const auto& [path, node] : nodes_) {
    if (path == "/") continue;
    if (!visit(path, *node)) return;
  }
}

bool Filesystem::operator==(const Filesystem& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  auto mine = nodes_.begin();
  auto theirs = other.nodes_.begin();
  for (; mine != nodes_.end(); ++mine, ++theirs) {
    if (mine->first != theirs->first) return false;
    // Shared node -> trivially equal; otherwise compare content.
    if (mine->second == theirs->second) continue;
    if (!(*mine->second == *theirs->second)) return false;
  }
  return true;
}

LayerDiff diff(const Filesystem& base, const Filesystem& target) {
  LayerDiff out;
  // Additions and modifications.
  target.walk([&](const std::string& path, const Node& node) {
    const Node* old = base.lookup(path);
    if (old == nullptr) {
      out.upper.make_directories(path_dirname(path));
      ++out.added;
    } else if (old == &node || (old->type == node.type && old->content == node.content &&
                                old->mode == node.mode)) {
      return true;  // unchanged (shared nodes short-circuit on identity)
    } else {
      ++out.modified;
    }
    switch (node.type) {
      case NodeType::directory:
        out.upper.make_directories(path, node.mode);
        break;
      case NodeType::regular:
        out.upper.write_file(path, node.content, node.mode);
        break;
      case NodeType::symlink:
        out.upper.make_symlink(path, node.content);
        break;
    }
    return true;
  });
  // Deletions become whiteout files. A deleted directory produces a single
  // whiteout for its root (children vanish with it).
  std::string skip_under;
  base.walk([&](const std::string& path, const Node&) {
    if (!skip_under.empty() && is_under(path, skip_under)) return true;
    if (!target.exists(path)) {
      out.upper.write_file(whiteout_path(path), "", 0);
      ++out.deleted;
      skip_under = path;
    }
    return true;
  });
  return out;
}

Status apply_layer(Filesystem& base, const Filesystem& layer) {
  // Pass 1: whiteouts and opaque markers.
  std::vector<std::string> whiteouts;
  std::vector<std::string> opaque_dirs;
  for (const auto& [path, node] : layer.nodes_) {
    std::string_view name = basename_view(path);
    if (name == kOpaqueMarker) {
      opaque_dirs.push_back(path_dirname(path));
    } else if (starts_with(name, kWhiteoutPrefix)) {
      whiteouts.push_back(path_join(path_dirname(path),
                                    name.substr(kWhiteoutPrefix.size())));
    }
  }
  if (whiteouts.empty() && opaque_dirs.empty() && base.node_count() == 0) {
    // Onto an empty root, a layer without markers yields exactly its own
    // tree (every path's parents are in it): share the whole map.
    base.nodes_ = layer.nodes_;
    return Status::success();
  }
  for (const std::string& dir : opaque_dirs) {
    if (base.is_directory(dir)) {
      COMT_TRY_STATUS(base.remove(dir));
      COMT_TRY_STATUS(base.make_directories(dir));
    }
  }
  for (const std::string& victim : whiteouts) {
    if (base.exists(victim)) COMT_TRY_STATUS(base.remove(victim));
  }
  // Pass 2: content. A regular file replacing a directory (or vice versa)
  // first removes the old node, per overlay semantics. Directories merge
  // (an existing one keeps its mode); files and symlinks bind the layer's
  // immutable node.
  for (const auto& [path, node] : layer.nodes_) {
    if (path == "/") continue;
    std::string_view name = basename_view(path);
    if (name == kOpaqueMarker || starts_with(name, kWhiteoutPrefix)) continue;
    auto old = base.nodes_.find(path);
    if (old != base.nodes_.end() && old->second->type != node->type) {
      COMT_TRY_STATUS(base.remove(path));
    }
    if (node->type == NodeType::directory) {
      COMT_TRY_STATUS(base.make_directories(path, node->mode));
    } else {
      COMT_TRY_STATUS(base.insert_parents(path));
      base.nodes_[path] = node;
    }
  }
  return Status::success();
}

}  // namespace comt::vfs
