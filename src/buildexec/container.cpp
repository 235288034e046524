#include "buildexec/container.hpp"

#include <algorithm>
#include <set>

#include "buildexec/make.hpp"
#include "support/strings.hpp"
#include "toolchain/driver.hpp"
#include "toolchain/options.hpp"
#include "toolchain/toolchains.hpp"

namespace comt::buildexec {
namespace {

constexpr std::string_view kDefaultPath = "/usr/local/bin:/usr/bin:/bin";
constexpr std::string_view kArStubMagic = "#!binutils-ar";
constexpr std::string_view kToolsetStubMagic = "#!comt-toolset";

/// Resolves argv[0] to an installed program path: names containing '/' are
/// taken relative to `cwd`, bare names search $PATH.
Result<std::string> resolve_program(const std::string& name, const vfs::Filesystem& fs,
                                    const std::string& cwd, const shell::Environment& env) {
  if (contains(name, "/")) {
    std::string path = normalize_path(path_join(cwd, name));
    if (fs.is_regular(path) || fs.is_symlink(path)) return path;
    return make_error(Errc::not_found, name + ": command not found");
  }
  auto it = env.find("PATH");
  std::string_view search = it != env.end() ? std::string_view(it->second) : kDefaultPath;
  for (const std::string& dir : split(search, ':')) {
    if (dir.empty()) continue;
    std::string candidate = path_join(dir, name);
    if (fs.is_regular(candidate) || fs.is_symlink(candidate)) return candidate;
  }
  return make_error(Errc::not_found, name + ": command not found");
}

/// True when the command is one of the file-utility / package / make builtins
/// the simulated shell provides (real images ship these as binaries; modeling
/// their effects is all the build scripts need).
bool is_builtin(std::string_view name) {
  static const std::set<std::string_view> kBuiltins = {
      "mkdir", "touch", "cp", "mv", "rm", "ln", "echo", "cat", "true",
      "make",  "apt-get", "apt"};
  return kBuiltins.count(name) != 0;
}

/// Splits a builtin argv into plain arguments and a `> file` redirect target.
struct RedirectSplit {
  std::vector<std::string> args;
  std::string target;  ///< "" when no redirect
};

Result<RedirectSplit> split_redirect(const std::vector<std::string>& argv) {
  RedirectSplit out;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (argv[i] == ">") {
      if (i + 1 != argv.size() - 1) {
        return make_error(Errc::invalid_argument, argv[0] + ": bad redirection");
      }
      out.target = argv[i + 1];
      return out;
    }
    out.args.push_back(argv[i]);
  }
  return out;
}

/// Copies a subtree within one filesystem. vfs::Filesystem::copy_from on the
/// same object would iterate the node map while inserting into it, so the
/// source subtree is collected first.
Status copy_within(vfs::Filesystem& fs, const std::string& source, const std::string& dest) {
  const vfs::Node* node = fs.lookup(source);
  if (node == nullptr) {
    return make_error(Errc::not_found, "cannot stat '" + source + "'");
  }
  std::vector<std::pair<std::string, vfs::Node>> subtree;
  if (node->type == vfs::NodeType::directory) {
    std::string prefix = source == "/" ? source : source + "/";
    fs.walk([&](const std::string& path, const vfs::Node& entry) {
      if (starts_with(path, prefix)) subtree.emplace_back(path.substr(prefix.size()), entry);
      return true;
    });
    COMT_TRY_STATUS(fs.make_directories(dest, node->mode));
  } else {
    subtree.emplace_back("", *node);
  }
  for (const auto& [relative, entry] : subtree) {
    std::string target = relative.empty() ? dest : path_join(dest, relative);
    switch (entry.type) {
      case vfs::NodeType::directory:
        COMT_TRY_STATUS(fs.make_directories(target, entry.mode));
        break;
      case vfs::NodeType::symlink:
        COMT_TRY_STATUS(fs.make_symlink(target, entry.content));
        break;
      case vfs::NodeType::regular:
        COMT_TRY_STATUS(fs.write_file(target, entry.content, entry.mode));
        break;
    }
  }
  return Status::success();
}

}  // namespace

Result<ToolExecution> exec_tool(const std::vector<std::string>& argv,
                                vfs::Filesystem& fs, const std::string& cwd,
                                const std::string& arch,
                                const shell::Environment& env) {
  if (argv.empty()) {
    return make_error(Errc::invalid_argument, "empty command");
  }
  COMT_TRY(std::string program, resolve_program(argv[0], fs, cwd, env));
  COMT_TRY(std::string content, fs.read_file(program));

  ToolExecution execution;
  execution.resolved_program = program;

  if (starts_with(content, toolchain::kToolchainStubMagic)) {
    std::string toolchain_id = toolchain::parse_toolchain_stub(content);
    const toolchain::Toolchain* toolchain =
        toolchain::ToolchainRegistry::builtin().find(toolchain_id);
    if (toolchain == nullptr) {
      return make_error(Errc::corrupt,
                        program + ": unknown toolchain '" + toolchain_id + "'");
    }
    COMT_TRY(toolchain::CompileCommand command, toolchain::parse_command(argv));
    // MPI compiler wrappers link the MPI library implicitly; that implicit
    // -lmpi is exactly the coupling the paper's adapters must preserve.
    if (starts_with(path_basename(argv[0]), "mpi") &&
        std::find(command.libraries.begin(), command.libraries.end(), "mpi") ==
            command.libraries.end()) {
      command.libraries.push_back("mpi");
    }
    toolchain::Driver driver(*toolchain, arch);
    COMT_TRY(toolchain::DriverResult result, driver.run(command, fs, cwd));
    execution.toolchain_id = toolchain_id;
    execution.outputs = std::move(result.outputs);
    execution.inputs_read = std::move(result.inputs_read);
    execution.log = std::move(result.log);
    return execution;
  }
  if (starts_with(content, kArStubMagic)) {
    COMT_TRY(toolchain::DriverResult result, toolchain::run_ar(argv, fs, cwd));
    execution.outputs = std::move(result.outputs);
    execution.inputs_read = std::move(result.inputs_read);
    execution.log = std::move(result.log);
    return execution;
  }
  if (starts_with(content, kToolsetStubMagic)) {
    // coMtainer toolset entry points (coMtainer-build & co.) are orchestrated
    // from outside the container; inside one they are no-ops.
    return execution;
  }
  return make_error(Errc::failed, argv[0] + ": cannot execute binary file");
}

Container::Container(vfs::Filesystem rootfs, oci::ImageConfig config,
                     const pkg::Repository* apt_source)
    : rootfs_(std::move(rootfs)), config_(std::move(config)), apt_source_(apt_source) {
  for (const std::string& entry : config_.config.env) {
    std::size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    env_[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  if (!config_.config.working_dir.empty()) {
    cwd_ = normalize_path(config_.config.working_dir);
  }
}

Status Container::run_shell(std::string_view line) {
  COMT_TRY(std::vector<shell::Command> commands, shell::parse_command_list(line, env_));
  Status last = Status::success();
  for (const shell::Command& command : commands) {
    last = execute(command.argv);
    if (!last.ok() && command.and_next) return last;
  }
  return last;
}

Status Container::run_argv(const std::vector<std::string>& argv) {
  return execute(argv);
}

Status Container::execute(const std::vector<std::string>& argv) {
  if (argv.empty()) return Status::success();

  // `cd` mutates shell state rather than the filesystem; it is not a tool
  // invocation and is not recorded.
  if (argv[0] == "cd") {
    std::string target =
        argv.size() > 1 ? normalize_path(path_join(cwd_, argv[1])) : std::string("/");
    COMT_TRY(std::string resolved, rootfs_.resolve(target));
    if (!rootfs_.is_directory(resolved)) {
      return make_error(Errc::not_found, "cd: " + target + ": No such directory");
    }
    cwd_ = std::move(resolved);
    return Status::success();
  }

  ToolInvocation invocation;
  invocation.argv = argv;
  invocation.cwd = cwd_;
  invocation.env = env_;

  Status status = dispatch(argv, invocation);

  invocation.succeeded = status.ok();
  if (!status.ok()) invocation.message = status.error().to_string();
  // Point-in-time digests: the recorded hashes must reflect file content as
  // the tool saw it, so they are taken immediately after the invocation.
  for (const std::vector<std::string>* paths :
       {&invocation.inputs_read, &invocation.outputs}) {
    for (const std::string& path : *paths) {
      auto digest = rootfs_.digest(path);
      if (digest.ok()) invocation.digests[path] = std::move(digest).value();
    }
  }
  if (record_ != nullptr) record_->invocations.push_back(std::move(invocation));
  return status;
}

Status Container::dispatch(const std::vector<std::string>& argv, ToolInvocation& invocation) {
  const std::string& name = argv[0];
  if (contains(name, "/") || !is_builtin(name)) {
    auto execution = exec_tool(argv, rootfs_, cwd_, config_.architecture, env_);
    if (!execution.ok()) return execution.error();
    invocation.outputs = std::move(execution.value().outputs);
    invocation.inputs_read = std::move(execution.value().inputs_read);
    invocation.resolved_program = std::move(execution.value().resolved_program);
    invocation.toolchain_id = std::move(execution.value().toolchain_id);
    return Status::success();
  }

  auto at = [&](const std::string& path) { return normalize_path(path_join(cwd_, path)); };

  if (name == "true") return Status::success();

  if (name == "mkdir") {
    for (std::size_t i = 1; i < argv.size(); ++i) {
      if (argv[i] == "-p") continue;
      COMT_TRY_STATUS(rootfs_.make_directories(at(argv[i])));
    }
    return Status::success();
  }

  if (name == "touch") {
    for (std::size_t i = 1; i < argv.size(); ++i) {
      std::string path = at(argv[i]);
      if (!rootfs_.exists(path)) {
        COMT_TRY_STATUS(rootfs_.write_file(path, ""));
      }
      invocation.outputs.push_back(path);
    }
    return Status::success();
  }

  if (name == "cp") {
    std::vector<std::string> paths;
    bool recursive = false;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      if (argv[i] == "-r" || argv[i] == "-R" || argv[i] == "-a") {
        recursive = true;
      } else {
        paths.push_back(at(argv[i]));
      }
    }
    if (paths.size() < 2) return make_error(Errc::invalid_argument, "cp: missing operand");
    std::string dest = paths.back();
    paths.pop_back();
    for (const std::string& source : paths) {
      if (!rootfs_.exists(source)) {
        return make_error(Errc::not_found, "cp: cannot stat '" + source + "'");
      }
      if (rootfs_.is_directory(source) && !recursive) {
        return make_error(Errc::invalid_argument,
                          "cp: -r not specified; omitting directory '" + source + "'");
      }
      std::string target = rootfs_.is_directory(dest) && !rootfs_.is_directory(source)
                               ? path_join(dest, path_basename(source))
                               : dest;
      COMT_TRY_STATUS(copy_within(rootfs_, source, target));
      invocation.inputs_read.push_back(source);
      invocation.outputs.push_back(target);
    }
    return Status::success();
  }

  if (name == "mv") {
    if (argv.size() != 3) return make_error(Errc::invalid_argument, "mv: missing operand");
    std::string source = at(argv[1]);
    std::string dest = at(argv[2]);
    if (!rootfs_.exists(source)) {
      return make_error(Errc::not_found, "mv: cannot stat '" + source + "'");
    }
    if (rootfs_.is_directory(dest)) dest = path_join(dest, path_basename(source));
    COMT_TRY_STATUS(rootfs_.rename(source, dest));
    invocation.outputs.push_back(dest);
    return Status::success();
  }

  if (name == "rm") {
    bool force = false;
    std::vector<std::string> paths;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      if (argv[i] == "-f" || argv[i] == "-rf" || argv[i] == "-fr") {
        force = true;
      } else if (argv[i] == "-r" || argv[i] == "-R") {
        continue;  // vfs remove is always recursive
      } else {
        paths.push_back(at(argv[i]));
      }
    }
    for (const std::string& path : paths) {
      if (!rootfs_.exists(path)) {
        if (force) continue;
        return make_error(Errc::not_found, "rm: cannot remove '" + path + "'");
      }
      COMT_TRY_STATUS(rootfs_.remove(path));
    }
    return Status::success();
  }

  if (name == "ln") {
    if (argv.size() != 4 || argv[1] != "-s") {
      return make_error(Errc::unsupported, "ln: only 'ln -s target link' is supported");
    }
    std::string link = at(argv[3]);
    COMT_TRY_STATUS(rootfs_.make_symlink(link, argv[2]));
    invocation.outputs.push_back(link);
    return Status::success();
  }

  if (name == "echo") {
    COMT_TRY(RedirectSplit redirect, split_redirect(argv));
    if (!redirect.target.empty()) {
      std::string path = at(redirect.target);
      COMT_TRY_STATUS(rootfs_.write_file(path, join(redirect.args, " ") + "\n"));
      invocation.outputs.push_back(path);
    }
    return Status::success();
  }

  if (name == "cat") {
    COMT_TRY(RedirectSplit redirect, split_redirect(argv));
    std::string text;
    for (const std::string& file : redirect.args) {
      std::string path = at(file);
      COMT_TRY(std::string content, rootfs_.read_file(path));
      text += content;
      invocation.inputs_read.push_back(path);
    }
    if (!redirect.target.empty()) {
      std::string path = at(redirect.target);
      COMT_TRY_STATUS(rootfs_.write_file(path, std::move(text)));
      invocation.outputs.push_back(path);
    }
    return Status::success();
  }

  if (name == "make") {
    auto targets = run_make(*this, argv);
    if (!targets.ok()) return targets.error();
    return Status::success();
  }

  if (name == "apt-get" || name == "apt") return builtin_apt(argv);

  return make_error(Errc::not_found, name + ": command not found");
}

Status Container::builtin_apt(const std::vector<std::string>& argv) {
  std::string subcommand;
  std::vector<std::string> names;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (starts_with(argv[i], "-")) continue;  // -y, -q and friends
    if (subcommand.empty()) {
      subcommand = argv[i];
    } else {
      names.push_back(argv[i]);
    }
  }
  if (apt_source_ == nullptr) {
    return make_error(Errc::failed, "apt-get: no package sources configured");
  }
  if (subcommand == "update") return Status::success();
  if (subcommand == "install") {
    COMT_TRY(pkg::Database database, pkg::Database::load(rootfs_));
    COMT_TRY(std::vector<const pkg::Package*> order,
             pkg::resolve(*apt_source_, names, database.installed_names()));
    for (const pkg::Package* package : order) {
      if (database.installed(package->name)) continue;
      COMT_TRY_STATUS(database.install(rootfs_, *package));
    }
    return Status::success();
  }
  if (subcommand == "remove" || subcommand == "purge") {
    COMT_TRY(pkg::Database database, pkg::Database::load(rootfs_));
    for (const std::string& package : names) {
      COMT_TRY_STATUS(database.remove(rootfs_, package));
    }
    return Status::success();
  }
  return make_error(Errc::unsupported, "apt-get: unsupported subcommand '" + subcommand + "'");
}

}  // namespace comt::buildexec
