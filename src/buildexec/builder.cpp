#include "buildexec/builder.hpp"

#include "support/strings.hpp"

namespace comt::buildexec {
namespace {

/// Sets an environment variable on the container and mirrors it into the
/// image config's "KEY=value" env list (so the committed image carries it).
void set_container_env(Container& container, const std::string& key,
                       const std::string& value) {
  container.env()[key] = value;
  std::vector<std::string>& entries = container.config().config.env;
  std::string prefix = key + "=";
  for (std::string& entry : entries) {
    if (starts_with(entry, prefix)) {
      entry = prefix + value;
      return;
    }
  }
  entries.push_back(prefix + value);
}

/// Regular files a COPY of `source` into `target` will create, as paths in
/// the destination tree (used to record the movement's outputs).
std::vector<std::string> copied_outputs(const vfs::Filesystem& tree,
                                        const std::string& source,
                                        const std::string& target) {
  std::vector<std::string> outputs;
  if (tree.is_regular(source)) {
    outputs.push_back(target);
    return outputs;
  }
  std::string prefix = source == "/" ? source : source + "/";
  tree.walk([&](const std::string& path, const vfs::Node& node) {
    if (node.type == vfs::NodeType::regular && starts_with(path, prefix)) {
      outputs.push_back(path_join(target, path.substr(prefix.size())));
    }
    return true;
  });
  return outputs;
}

}  // namespace

Result<oci::Image> ImageBuilder::build(const dockerfile::Dockerfile& file,
                                       const vfs::Filesystem& context,
                                       std::string_view tag,
                                       std::string_view target_stage,
                                       BuildRecord* record) {
  if (file.stages.empty()) {
    return make_error(Errc::invalid_argument, "build: Dockerfile has no stages");
  }
  int last_stage = static_cast<int>(file.stages.size()) - 1;
  if (!target_stage.empty()) {
    last_stage = file.stage_index(target_stage);
    if (last_stage < 0) {
      return make_error(Errc::not_found,
                        "build: unknown target stage '" + std::string(target_stage) + "'");
    }
  }

  struct BuiltStage {
    oci::Image image;
    vfs::Filesystem rootfs;
  };
  std::vector<BuiltStage> built;

  for (int index = 0; index <= last_stage; ++index) {
    const dockerfile::Stage& stage = file.stages[index];

    // The base is an earlier stage of this build or an image in the layout.
    oci::Image base;
    int from_stage = file.stage_index(stage.base_image);
    if (from_stage >= 0 && from_stage < index) {
      base = built[from_stage].image;
    } else {
      auto found = layout_.find_image(stage.base_image);
      if (!found.ok()) {
        return make_error(Errc::not_found,
                          "build: unknown base image '" + stage.base_image + "'");
      }
      base = std::move(found).value();
    }
    COMT_TRY(vfs::Filesystem rootfs, layout_.flatten(base));
    Container container(std::move(rootfs), base.config, apt_source_);

    // Recording is opt-in via the base image's hijack label (Fig. 6): builds
    // from mainstream bases proceed unrecorded.
    auto label = base.config.config.labels.find(std::string(kHijackLabel));
    bool hijack = label != base.config.config.labels.end() && label->second == "true";
    if (record != nullptr && hijack) container.attach_recorder(record);

    for (const dockerfile::Instruction& inst : stage.instructions) {
      switch (inst.kind) {
        case dockerfile::InstructionKind::from:
          break;  // stage boundaries are handled by the outer loop
        case dockerfile::InstructionKind::run: {
          Status status = container.run_shell(inst.text);
          if (!status.ok()) {
            return make_error(status.error().code,
                              "RUN (line " + std::to_string(inst.line) +
                                  "): " + status.error().message);
          }
          break;
        }
        case dockerfile::InstructionKind::copy: {
          if (inst.args.size() < 2) {
            return make_error(Errc::invalid_argument,
                              "COPY (line " + std::to_string(inst.line) +
                                  "): needs source and destination");
          }
          const vfs::Filesystem* source_tree = &context;
          if (!inst.stage.empty()) {
            int source_stage = file.stage_index(inst.stage);
            if (source_stage < 0 || source_stage >= static_cast<int>(built.size())) {
              return make_error(Errc::not_found,
                                "COPY (line " + std::to_string(inst.line) +
                                    "): unknown stage '" + inst.stage + "'");
            }
            source_tree = &built[source_stage].rootfs;
          }
          std::string dest_raw = inst.args.back();
          std::string dest = normalize_path(path_join(container.cwd(), dest_raw));
          ToolInvocation movement;
          movement.argv.emplace_back(kCopyPseudoTool);
          for (const std::string& arg : inst.args) movement.argv.push_back(arg);
          movement.cwd = container.cwd();
          for (std::size_t i = 0; i + 1 < inst.args.size(); ++i) {
            std::string source = normalize_path(path_join("/", inst.args[i]));
            if (!source_tree->exists(source)) {
              return make_error(Errc::not_found,
                                "COPY (line " + std::to_string(inst.line) +
                                    "): '" + inst.args[i] + "' not found");
            }
            std::string target = dest;
            if (source_tree->is_regular(source) &&
                (inst.args.size() > 2 || ends_with(dest_raw, "/"))) {
              target = path_join(dest, path_basename(source));
            }
            COMT_TRY_STATUS(container.rootfs().copy_from(*source_tree, source, target));
            movement.inputs_read.push_back(source);
            for (std::string& output : copied_outputs(*source_tree, source, target)) {
              movement.outputs.push_back(std::move(output));
            }
          }
          if (record != nullptr && hijack) {
            for (const std::string& output : movement.outputs) {
              auto digest = container.rootfs().digest(output);
              if (digest.ok()) movement.digests[output] = std::move(digest).value();
            }
            record->invocations.push_back(std::move(movement));
          }
          break;
        }
        case dockerfile::InstructionKind::env:
          set_container_env(container, inst.args[0], inst.args[1]);
          break;
        case dockerfile::InstructionKind::arg: {
          // ARG scope: available for expansion in later instructions of this
          // build, overridden by --build-arg, not persisted into the config.
          auto supplied = build_args_.find(inst.args[0]);
          container.env()[inst.args[0]] =
              supplied != build_args_.end()
                  ? supplied->second
                  : (inst.args.size() > 1 ? inst.args[1] : "");
          break;
        }
        case dockerfile::InstructionKind::workdir: {
          std::string path = normalize_path(
              path_join(container.cwd(),
                        shell::expand_variables(inst.args[0], container.env())));
          COMT_TRY_STATUS(container.rootfs().make_directories(path));
          container.set_cwd(path);
          container.config().config.working_dir = path;
          break;
        }
        case dockerfile::InstructionKind::label:
          container.config().config.labels[inst.args[0]] = inst.args[1];
          break;
        case dockerfile::InstructionKind::entrypoint:
          container.config().config.entrypoint = inst.args;
          break;
        case dockerfile::InstructionKind::cmd:
          container.config().config.cmd = inst.args;
          break;
      }
    }

    std::string stage_tag = std::string(tag) + ".stage" + std::to_string(index);
    std::string created_by =
        "FROM " + stage.base_image + (stage.name.empty() ? "" : " AS " + stage.name);
    COMT_TRY(oci::Image image, commit(container, base, created_by, stage_tag));
    built.push_back(BuiltStage{std::move(image), container.rootfs()});
  }

  oci::Image final_image = built[last_stage].image;
  COMT_TRY(final_image.manifest_digest, layout_.add_manifest(final_image.manifest, tag));
  return final_image;
}

Result<Container> ImageBuilder::container_from(std::string_view tag) const {
  COMT_TRY(oci::Image image, layout_.find_image(tag));
  COMT_TRY(vfs::Filesystem rootfs, layout_.flatten(image));
  return Container(std::move(rootfs), image.config, apt_source_);
}

Result<oci::Image> ImageBuilder::commit(const Container& container, const oci::Image& base,
                                        std::string_view created_by, std::string_view tag) {
  COMT_TRY(vfs::Filesystem base_rootfs, layout_.flatten(base));
  vfs::LayerDiff delta = vfs::diff(base_rootfs, container.rootfs());
  oci::Descriptor layer = layout_.put_layer(delta.upper);

  oci::ImageConfig config = container.config();
  config.diff_ids = base.config.diff_ids;
  config.diff_ids.push_back(layer.digest);
  config.history = base.config.history;
  config.history.emplace_back(created_by);
  oci::Manifest manifest = base.manifest;
  manifest.config = layout_.put_config(config);
  manifest.layers.push_back(layer);
  COMT_TRY(oci::Digest manifest_digest, layout_.add_manifest(manifest, tag));
  return oci::Image{std::move(manifest_digest), std::move(manifest), std::move(config)};
}

}  // namespace comt::buildexec
