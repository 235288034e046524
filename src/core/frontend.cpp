#include "core/frontend.hpp"

#include <map>
#include <set>

#include "pkg/pkg.hpp"
#include "support/strings.hpp"

namespace comt::core {
namespace {

bool is_compiler_basename(std::string_view name) {
  return name == "gcc" || name == "g++" || name == "cc" || name == "c++" ||
         name == "clang" || name == "clang++" || name == "gfortran" ||
         name == "mpicc" || name == "mpicxx" || name == "mpic++" || name == "icx" ||
         name == "ftcc" || name == "vcc" || name == "vcxx";
}

NodeKind kind_for_path(std::string_view path) {
  std::string ext = path_extension(path);
  if (ext == ".o") return NodeKind::object;
  if (ext == ".a") return NodeKind::archive;
  if (ext == ".so") return NodeKind::shared_lib;
  if (ext == ".c" || ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" ||
      ext == ".hpp" || ext == ".f90" || ext == ".F90") {
    return NodeKind::source;
  }
  return NodeKind::data;
}

bool looks_like_data(std::string_view path) {
  std::string ext = path_extension(path);
  return ext == ".dat" || ext == ".txt" || ext == ".json" || ext == ".csv" ||
         ext == ".in" || ext == ".cfg" || ext == ".conf" || ext == ".md" ||
         ext == ".yaml" || ext == ".toml" || contains(path, "/data/") ||
         contains(path, "/share/");
}

}  // namespace

Result<BuildGraph> build_graph_from_record(const buildexec::BuildRecord& record) {
  BuildGraph graph;
  // digest -> node id, most recent wins.
  std::map<std::string, int> by_digest;

  auto leaf_for = [&](const std::string& path, const std::string& digest) -> int {
    if (!digest.empty()) {
      auto it = by_digest.find(digest);
      if (it != by_digest.end()) return it->second;
    }
    GraphNode node;
    node.kind = kind_for_path(path);
    // Derived extensions appearing as unseen inputs (e.g. an .o checked into
    // the context) are still leaves of this build.
    node.path = path;
    node.content_digest = digest;
    int id = graph.add_node(std::move(node));
    if (!digest.empty()) by_digest[digest] = id;
    return id;
  };

  for (const buildexec::ToolInvocation& invocation : record.invocations) {
    if (!invocation.succeeded || invocation.argv.empty()) continue;
    const std::string tool = path_basename(invocation.argv[0]);
    const bool is_compiler = is_compiler_basename(tool);
    const bool is_ar = tool == "ar";
    if (!is_compiler && !is_ar) continue;  // COPY & file utils don't create nodes

    std::vector<int> deps;
    for (const std::string& input : invocation.inputs_read) {
      auto digest_it = invocation.digests.find(input);
      std::string digest = digest_it == invocation.digests.end() ? "" : digest_it->second;
      deps.push_back(leaf_for(input, digest));
    }

    std::optional<toolchain::CompileCommand> compile;
    if (is_compiler) {
      COMT_TRY(toolchain::CompileCommand command,
               toolchain::parse_command(invocation.argv));
      compile = std::move(command);
    }

    for (const std::string& output : invocation.outputs) {
      GraphNode node;
      node.kind = kind_for_path(output);
      if (node.kind == NodeKind::data || node.kind == NodeKind::source) {
        // A compiler/linker output without a derived extension is a program.
        node.kind = NodeKind::executable;
      }
      if (is_ar) node.kind = NodeKind::archive;
      node.path = output;
      auto digest_it = invocation.digests.find(output);
      node.content_digest =
          digest_it == invocation.digests.end() ? "" : digest_it->second;
      node.deps = deps;
      node.compile = compile;
      if (is_ar) node.archive_argv = invocation.argv;
      node.toolchain_id = invocation.toolchain_id;
      node.cwd = invocation.cwd;
      int id = graph.add_node(std::move(node));
      if (!graph.node(id).content_digest.empty()) {
        by_digest[graph.node(id).content_digest] = id;
      }
    }
  }
  return graph;
}

Result<ImageModel> classify_image(const oci::Layout& layout, const oci::Image& dist,
                                  const oci::Image& base, const BuildGraph& graph) {
  COMT_TRY(vfs::Filesystem dist_fs, layout.flatten(dist));
  COMT_TRY(vfs::Filesystem base_fs, layout.flatten(base));
  COMT_TRY(pkg::Database database, pkg::Database::load(dist_fs));

  ImageModel model;
  model.architecture = dist.config.architecture;
  model.entrypoint = dist.config.config.entrypoint;

  dist_fs.walk([&](const std::string& path, const vfs::Node& node) {
    if (node.type == vfs::NodeType::directory) return true;
    if (starts_with(path, "/.coMtainer")) return true;  // our own plumbing

    ImageFileEntry entry;
    entry.path = path;
    entry.size = node.content.size();
    entry.digest = node.type == vfs::NodeType::regular ? node.digest() : "";

    const vfs::Node* base_node = base_fs.lookup(path);
    std::string owner = database.owner_of(path);
    if (base_node != nullptr && base_node->type == node.type &&
        base_node->content == node.content) {
      entry.origin = FileOrigin::base_image;
    } else if (!owner.empty() || starts_with(path, "/var/lib/dpkg")) {
      entry.origin = FileOrigin::package_manager;
      entry.owner_package = owner;
    } else if (int id = graph.find_by_digest(entry.digest); id >= 0) {
      entry.origin = FileOrigin::build_process;
      entry.build_node = id;
    } else if (looks_like_data(path)) {
      entry.origin = FileOrigin::data;
    } else {
      entry.origin = FileOrigin::unknown;
    }
    model.files.push_back(std::move(entry));
    return true;
  });

  for (const std::string& name : database.installed_names()) {
    const pkg::InstalledPackage* package = database.find(name);
    RuntimePackage runtime;
    runtime.name = package->name;
    runtime.version = package->version;
    runtime.variant = pkg::variant_name(package->variant);
    model.runtime_packages.push_back(std::move(runtime));
  }
  return model;
}

Result<ProcessModels> analyze(const AnalysisInput& input) {
  if (input.record == nullptr || input.layout == nullptr || input.dist_image == nullptr ||
      input.dist_base == nullptr) {
    return make_error(Errc::invalid_argument, "analyze: missing input");
  }
  ProcessModels models;
  COMT_TRY(models.graph, build_graph_from_record(*input.record));
  COMT_TRY(models.image,
           classify_image(*input.layout, *input.dist_image, *input.dist_base, models.graph));
  return models;
}

}  // namespace comt::core
