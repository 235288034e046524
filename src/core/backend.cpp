#include "core/backend.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "buildexec/builder.hpp"
#include "buildexec/container.hpp"
#include "core/frontend.hpp"
#include "sched/dag.hpp"
#include "sched/thread_pool.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "toolchain/driver.hpp"

namespace comt::core {
namespace {

constexpr std::string_view kRebuildMetaPath = "/.coMtainer/rebuild-meta.json";

json::Value replacements_to_json(const std::map<std::string, std::string>& replacements) {
  json::Object object;
  for (const auto& [from, to] : replacements) object.emplace_back(from, json::Value(to));
  return json::Value(std::move(object));
}

std::map<std::string, std::string> replacements_from_json(const json::Value& value) {
  std::map<std::string, std::string> out;
  if (!value.is_object()) return out;
  for (const auto& [from, to] : value.as_object()) {
    if (to.is_string()) out[from] = to.as_string();
  }
  return out;
}

/// Pins an image's blobs (manifest, config, layers) in a layout for the
/// guard's lifetime. A journaled rebuild holds one over its source image so
/// garbage collection or fsck quarantine running against the same layout
/// cannot reclaim bytes the rebuild — or a crash-resume of it — still needs.
class PinGuard {
 public:
  PinGuard() = default;
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;
  ~PinGuard() {
    if (layout_ == nullptr) return;
    for (const oci::Digest& digest : digests_) layout_->unpin_blob(digest);
  }

  void pin(oci::Layout& layout, const oci::Image& image) {
    layout_ = &layout;
    digests_.push_back(image.manifest_digest);
    digests_.push_back(image.manifest.config.digest);
    for (const oci::Descriptor& layer : image.manifest.layers) {
      digests_.push_back(layer.digest);
    }
    for (const oci::Digest& digest : digests_) layout.pin_blob(digest);
  }

 private:
  oci::Layout* layout_ = nullptr;
  std::vector<oci::Digest> digests_;
};

/// Identity of a rebuild for the journal's begin record: the extended image,
/// the target, and the (adapter-transformed) compile DAG. A journal written
/// for one identity must not drive another — replaying foreign outputs would
/// silently corrupt the rebuilt image.
std::string rebuild_inputs_digest(const oci::Image& extended,
                                  const sysmodel::SystemProfile& system,
                                  const std::string& arch, const BuildGraph& graph,
                                  const std::vector<int>& order) {
  Sha256 hasher;
  auto put = [&hasher](std::string_view field) {
    std::uint64_t size = field.size();
    hasher.update(&size, sizeof(size));
    hasher.update(field);
  };
  put(extended.manifest_digest.value);
  put(system.name);
  put(arch);
  for (int id : order) {
    const GraphNode& node = graph.node(id);
    put(std::to_string(id));
    put(node.path);
    put(node.cwd);
    if (node.is_leaf()) {
      put(node.content_digest);
      continue;
    }
    if (node.compile.has_value()) {
      for (const std::string& arg : node.compile->render()) put(arg);
    }
    for (const std::string& arg : node.archive_argv) put(arg);
    for (int dep : node.deps) put(std::to_string(dep));
  }
  auto digest = hasher.finish();
  return to_hex(digest.data(), digest.size());
}

}  // namespace

std::string base_tag_of(std::string_view tag) {
  for (std::string_view suffix : {kRedirectedSuffix, kRebuiltSuffix, kExtendedSuffix}) {
    if (ends_with(tag, suffix)) return std::string(tag.substr(0, tag.size() - suffix.size()));
  }
  return std::string(tag);
}

Result<oci::Image> comtainer_build(oci::Layout& layout, std::string_view dist_tag,
                                   std::string_view base_tag,
                                   const buildexec::BuildRecord& record,
                                   const vfs::Filesystem& build_rootfs,
                                   const CacheOptions& cache_options) {
  COMT_TRY(oci::Image dist, layout.find_image(dist_tag));
  COMT_TRY(oci::Image base, layout.find_image(base_tag));

  AnalysisInput input;
  input.record = &record;
  input.layout = &layout;
  input.dist_image = &dist;
  input.dist_base = &base;
  COMT_TRY(ProcessModels models, analyze(input));
  models.image.image_tag = std::string(dist_tag);

  COMT_TRY(vfs::Filesystem cache_layer,
           make_cache_layer(models, build_rootfs, cache_options));
  std::string extended_tag = std::string(dist_tag) + std::string(kExtendedSuffix);
  return layout.append_layer(dist, cache_layer, "coMtainer-build", extended_tag);
}

Result<RebuildReport> comtainer_rebuild(oci::Layout& layout, std::string_view extended_tag,
                                        const RebuildOptions& options) {
  if (options.system == nullptr || options.system_repo == nullptr) {
    return make_error(Errc::invalid_argument, "rebuild: missing system or repository");
  }
  obs::Span root_span =
      obs::maybe_span(options.tracer, "rebuild", options.parent_span, "rebuild");
  root_span.annotate("image", extended_tag);
  obs::Span resolve_span =
      obs::maybe_span(options.tracer, "resolve", root_span.id(), "resolve");
  COMT_TRY(oci::Image extended, layout.find_image(extended_tag));
  COMT_TRY(std::shared_ptr<const CacheBundle> bundle, cache_bundle(layout, extended));

  // Adapters operate on an independent copy of the models (§4.2).
  BuildGraph graph = bundle->models.graph;
  AdapterContext context{options.system, options.system_repo};
  RebuildReport report;
  report.root_span = root_span.id();
  bool want_profile = false;
  for (const SystemAdapter* adapter : options.adapters) {
    COMT_TRY_STATUS(adapter->adapt_graph(graph, context));
    adapter->adapt_packages(report.package_replacements, bundle->models.image, context);
    want_profile = want_profile || adapter->wants_profile_feedback();
  }

  // The rebuild container: the system's build environment.
  buildexec::ImageBuilder builder(layout);
  builder.set_apt_source(options.system_repo);
  COMT_TRY(buildexec::Container container, builder.container_from(options.sysenv_tag));

  // Materialize every build input from the cache at its recorded path,
  // binding the cache's own node (its bytes and its digest memo, shared by
  // every rebuild of this image). Inputs absent from the cache must be
  // environment-provided files (package-owned libraries): the Sysenv
  // container supplies its own — optimized — builds of those at the same
  // paths.
  for (const GraphNode& node : graph.nodes()) {
    if (!node.is_leaf() || node.content_digest.empty()) continue;
    const std::string source = "/" + node.content_digest;
    if (!bundle->sources.is_regular(source)) {
      if (container.rootfs().exists(node.path)) continue;
      return make_error(Errc::corrupt, "rebuild: cache is missing input " + node.path +
                                           " and the system provides no substitute");
    }
    COMT_TRY_STATUS(container.rootfs().copy_from(bundle->sources, source, node.path));
  }

  // The compile scheduler. Each non-leaf graph node becomes one job whose
  // dependency edges are the node's non-leaf producers, so independent
  // translation units compile concurrently while links wait for their
  // objects. Sequential mode (threads == 1) runs jobs inline in topological
  // order directly on the shared rootfs. Concurrent mode runs the DAG in
  // epoch/wave mode: every wave shares one immutable copy-on-write snapshot
  // of the rootfs (published by the wave-begin hook, read lock-free by all
  // jobs), job outputs are buffered per job, and the wave-commit hook applies
  // them to the rootfs — in submission order, on the scheduler's calling
  // thread, one batch per wave instead of one writer lock per job. Both modes
  // produce bit-identical rebuilt images because a job only ever reads
  // outputs of its (earlier-wave) dependencies. See docs/PERFORMANCE.md.
  COMT_TRY(std::vector<int> order, graph.topological_order());
  const std::string arch = container.config().architecture;
  const shell::Environment env = container.env();
  // Concurrent mode only: the current wave's shared rootfs snapshot. Written
  // by the wave-begin hook (between waves, on the run() caller's thread),
  // read by job bodies; the wave barrier orders the two.
  std::shared_ptr<const vfs::Filesystem> epoch_view;
  // One per scheduler job in concurrent mode: outputs buffered by the body,
  // applied by the wave-commit hook.
  struct PendingCommit {
    std::string job_key;
    std::vector<sched::CachedOutput> outputs;
    bool replayed = false;  ///< journal replay: already durable, don't re-append
  };
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> journal_replayed{0};
  std::atomic<std::uint64_t> journal_committed{0};

  // Write-ahead journal: bind this rebuild to the journal's begin record and
  // recover whatever a previous interrupted run already committed. The source
  // image's blobs stay pinned while the journal is live.
  durable::ReplayState replay_state;
  PinGuard pins;
  if (options.journal != nullptr) {
    pins.pin(layout, extended);
    const std::string inputs_digest =
        rebuild_inputs_digest(extended, *options.system, arch, graph, order);
    COMT_TRY(replay_state, options.journal->replay());
    report.journal_truncated_bytes = replay_state.truncated_bytes;
    if (replay_state.begin.has_value()) {
      if (replay_state.begin->inputs_digest != inputs_digest) {
        return make_error(Errc::invalid_argument,
                          "rebuild: journal was begun for different inputs (" +
                              replay_state.begin->inputs_digest + " != " + inputs_digest +
                              ")");
      }
      report.resumed = true;
    } else {
      durable::BeginRecord begin;
      begin.inputs_digest = inputs_digest;
      begin.system = options.system->name;
      begin.metadata = options.journal_metadata;
      for (int id : order) {
        if (!graph.node(id).is_leaf()) ++begin.planned_jobs;
      }
      COMT_TRY_STATUS(options.journal->append_begin(begin));
    }
  }
  resolve_span.end();

  // Current digest of `path` in the shared rootfs; "" when unreadable. The
  // cache verifies its per-entry input manifest through this, so a changed
  // source, header, object or toolchain stub turns a candidate into a miss.
  // Concurrent jobs digest against the wave's immutable snapshot, lock-free;
  // sequential jobs read the live rootfs (nothing else is running).
  auto digest_in_rootfs = [&](const std::string& path) -> std::string {
    const vfs::Filesystem& fs =
        epoch_view != nullptr ? *epoch_view : container.rootfs();
    auto digest = fs.digest(path);
    return digest.ok() ? std::move(digest).value() : std::string();
  };

  // One job body. `slot == nullptr` is the sequential path: execute in place
  // on the shared rootfs, commit and journal inline (per-job crash sites are
  // exact, which the crash-resume machinery depends on). With a slot the job
  // runs in a wave: it executes against a private copy of the wave snapshot
  // and buffers its outputs; the wave-commit hook applies and journals them
  // at the barrier.
  auto run_job = [&](const std::string& job_key, const std::vector<std::string>& argv,
                     const std::string& cwd, PendingCommit* slot) -> Status {
    if (options.fault_injector != nullptr) {
      options.fault_injector->check_crash(kCrashJobStart);
    }
    if (slot != nullptr) slot->job_key = job_key;
    // Crash-resume replay: a commit record means this job's outputs are
    // already durable — re-apply them instead of re-running the tool.
    if (options.journal != nullptr) {
      auto committed = replay_state.commits.find(job_key);
      if (committed != replay_state.commits.end()) {
        if (durable::digest_outputs(committed->second.outputs) !=
            committed->second.output_digest) {
          return make_error(Errc::corrupt, "rebuild: journal commit for job " + job_key +
                                               " fails its output digest");
        }
        if (slot != nullptr) {
          slot->replayed = true;
          for (const durable::JournalOutput& out : committed->second.outputs) {
            slot->outputs.push_back({out.path, out.content, out.mode});
          }
        } else {
          for (const durable::JournalOutput& out : committed->second.outputs) {
            COMT_TRY_STATUS(container.rootfs().write_file(out.path, out.content, out.mode));
          }
        }
        journal_replayed.fetch_add(1);
        return Status::success();
      }
    }
    if (options.fault_injector != nullptr) {
      COMT_TRY_STATUS(options.fault_injector->check(kCompileFaultSite));
    }
    sched::CacheKey key{options.system->name, arch, cwd, argv};
    const std::string key_digest = key.digest();
    std::vector<sched::CachedOutput> outputs;
    bool from_cache = false;
    if (options.compile_cache != nullptr) {
      auto hit = options.compile_cache->lookup(key_digest, digest_in_rootfs);
      if (hit != nullptr) {
        outputs = hit->outputs;
        from_cache = true;
        cache_hits.fetch_add(1);
      }
    }
    if (!from_cache) {
      // Sequential mode executes directly on the shared rootfs (nothing else
      // runs, so no snapshot is needed and no copy is paid). A wave job
      // executes against a private copy of the wave snapshot — node-level
      // structural sharing makes that a pointer-per-path copy, no content
      // bytes and no lock — and the rebuilt files are identical because the
      // tool sees the same committed dependency outputs either way.
      vfs::Filesystem snapshot;
      vfs::Filesystem* fs = &container.rootfs();
      if (slot != nullptr) {
        snapshot = *epoch_view;
        fs = &snapshot;
      }
      auto executed = buildexec::exec_tool(argv, *fs, cwd, arch, env);
      if (!executed.ok()) return executed.error();
      cache_misses.fetch_add(1);
      if (slot != nullptr || options.compile_cache != nullptr ||
          options.journal != nullptr) {
        for (const std::string& out_path : executed.value().outputs) {
          auto content = fs->read_file(out_path);
          if (!content.ok()) continue;  // e.g. an output the tool itself removed
          std::uint32_t mode = 0644;
          if (const vfs::Node* node = fs->lookup(out_path)) mode = node->mode;
          outputs.push_back({out_path, std::move(content).value(), mode});
        }
      }
      if (options.compile_cache != nullptr) {
        sched::CacheEntry entry;
        for (const std::string& in_path : executed.value().inputs_read) {
          auto digest = fs->digest(in_path);
          entry.input_digests[in_path] = digest.ok() ? std::move(digest).value() : std::string();
        }
        if (!executed.value().resolved_program.empty()) {
          auto digest = fs->digest(executed.value().resolved_program);
          entry.input_digests[executed.value().resolved_program] =
              digest.ok() ? std::move(digest).value() : std::string();
        }
        if (slot != nullptr || options.journal != nullptr) {
          entry.outputs = outputs;  // the write-back / journal commit below still needs them
        } else {
          entry.outputs = std::move(outputs);
        }
        options.compile_cache->store(key_digest, std::move(entry));
      }
    }
    if (slot != nullptr) {
      // Wave mode: nothing touches the shared rootfs here. The commit hook
      // applies these at the barrier, in submission order.
      slot->outputs = std::move(outputs);
      return Status::success();
    }
    // Sequential: a cache hit replays its outputs onto the rootfs (a miss
    // already wrote in place), then the job is journaled inline.
    if (from_cache) {
      for (const sched::CachedOutput& out : outputs) {
        COMT_TRY_STATUS(container.rootfs().write_file(out.path, out.content, out.mode));
      }
    }
    if (options.journal != nullptr) {
      if (options.fault_injector != nullptr) {
        options.fault_injector->check_crash(kCrashJobCommitted);
      }
      durable::CommitRecord record;
      record.job_id = job_key;
      record.outputs.reserve(outputs.size());
      for (sched::CachedOutput& out : outputs) {
        record.outputs.push_back({std::move(out.path), std::move(out.content), out.mode});
      }
      record.output_digest = durable::digest_outputs(record.outputs);
      COMT_TRY_STATUS(options.journal->append_commit(record));
      journal_committed.fetch_add(1);
      if (options.fault_injector != nullptr) {
        options.fault_injector->check_crash(kCrashJournalCommitted);
      }
    }
    return Status::success();
  };

  std::unique_ptr<sched::ThreadPool> pool;
  obs::Counter* commit_batches = nullptr;
  obs::Histogram* commit_batch_jobs = nullptr;
  if (options.threads > 1) {
    pool = std::make_unique<sched::ThreadPool>(options.threads);
    pool->set_metrics(options.metrics);
    if (options.metrics != nullptr) {
      commit_batches = &options.metrics->counter("rebuild.commit.batches");
      commit_batch_jobs = &options.metrics->histogram("rebuild.commit.batch_jobs",
                                                      obs::default_batch_size_buckets());
    }
  }

  // `pass` prefixes journal job keys so the two PGO passes (which run the
  // same node ids with different flags) never share commit records.
  auto execute_graph = [&](bool profile_generate, bool profile_use,
                           std::string_view pass) -> Status {
    // The pass span parents every compile-job span; its own category is
    // "sched" so the profile attributes the time to the jobs, not twice.
    obs::Span pass_span = obs::maybe_span(
        options.tracer, "pass:" + std::string(pass), root_span.id(), "sched");
    sched::DagScheduler scheduler;
    std::vector<PendingCommit> pending;  // sized after all jobs are added
    for (int id : order) {
      const GraphNode& node = graph.node(id);
      if (node.is_leaf()) continue;
      std::vector<std::string> argv;
      if (node.compile.has_value()) {
        toolchain::CompileCommand command = *node.compile;
        if (profile_generate) {
          command.profile_generate = true;
          command.profile_use.clear();
        }
        if (profile_use) {
          command.profile_generate = false;
          command.profile_use = ".";
        }
        argv = command.render();
      } else if (!node.archive_argv.empty()) {
        argv = node.archive_argv;
      }
      std::vector<std::string> dep_jobs;
      for (int dep : node.deps) {
        if (!graph.node(dep).is_leaf()) dep_jobs.push_back(std::to_string(dep));
      }
      std::string cwd = node.cwd.empty() ? "/" : node.cwd;
      std::string path = node.path;
      std::string job_key = std::string(pass) + ":" + std::to_string(id);
      const std::size_t job_index = scheduler.job_count();
      COMT_TRY_STATUS(scheduler.add_job(
          std::to_string(id), std::move(dep_jobs),
          [&run_job, &pending, &pool, id, job_index, job_key = std::move(job_key),
           path = std::move(path), argv = std::move(argv),
           cwd = std::move(cwd)]() -> Status {
            if (argv.empty()) return Status::success();
            PendingCommit* slot = pool != nullptr ? &pending[job_index] : nullptr;
            Status status = run_job(job_key, argv, cwd, slot);
            if (!status.ok()) {
              return make_error(status.error().code,
                                "rebuild of node " + std::to_string(id) + " (" + path +
                                    "): " + status.error().message);
            }
            return Status::success();
          },
          node.archive_argv.empty() ? "compile" : "link"));
    }
    pending.assign(scheduler.job_count(), PendingCommit{});
    report.jobs += scheduler.job_count();
    sched::ObsOptions sched_obs;
    sched_obs.tracer = options.tracer;
    sched_obs.parent = pass_span.id();
    sched_obs.metrics = options.metrics;

    // Concurrent passes run in epoch mode: one shared snapshot per wave, one
    // batched commit (plus journal appends) per wave, both on this thread.
    sched::EpochHooks hooks;
    const sched::EpochHooks* hooks_ptr = nullptr;
    if (pool != nullptr) {
      hooks.begin = [&](std::size_t, const std::vector<std::size_t>&) {
        epoch_view = std::make_shared<const vfs::Filesystem>(container.rootfs());
      };
      hooks.commit = [&](std::size_t,
                         const std::vector<std::size_t>& succeeded) -> Status {
        if (commit_batches != nullptr) commit_batches->add();
        if (commit_batch_jobs != nullptr) {
          commit_batch_jobs->observe(static_cast<double>(succeeded.size()));
        }
        for (std::size_t job : succeeded) {
          PendingCommit& slot = pending[job];
          for (const sched::CachedOutput& out : slot.outputs) {
            COMT_TRY_STATUS(
                container.rootfs().write_file(out.path, out.content, out.mode));
          }
          if (options.journal != nullptr && !slot.replayed) {
            if (options.fault_injector != nullptr) {
              options.fault_injector->check_crash(kCrashJobCommitted);
            }
            durable::CommitRecord record;
            record.job_id = slot.job_key;
            record.outputs.reserve(slot.outputs.size());
            for (sched::CachedOutput& out : slot.outputs) {
              record.outputs.push_back(
                  {std::move(out.path), std::move(out.content), out.mode});
            }
            record.output_digest = durable::digest_outputs(record.outputs);
            COMT_TRY_STATUS(options.journal->append_commit(record));
            journal_committed.fetch_add(1);
            if (options.fault_injector != nullptr) {
              options.fault_injector->check_crash(kCrashJournalCommitted);
            }
          }
          slot.outputs.clear();
          slot.outputs.shrink_to_fit();
        }
        return Status::success();
      };
      hooks_ptr = &hooks;
    }
    COMT_TRY(sched::ScheduleReport schedule,
             scheduler.run(pool.get(), sched_obs, hooks_ptr));
    pass_span.annotate("jobs", static_cast<std::uint64_t>(schedule.jobs.size()));
    report.nodes_executed += schedule.executed;
    report.wall_ms += schedule.wall_ms;
    return schedule.first_error();
  };

  if (want_profile) {
    // Pass 1: instrumented build.
    COMT_TRY_STATUS(execute_graph(/*profile_generate=*/true, /*profile_use=*/false, "pg"));
    // Trial runs on the target system produce the profiles.
    sysmodel::ExecutionEngine engine(*options.system);
    for (int id : graph.roots()) {
      const GraphNode& node = graph.node(id);
      if (node.kind != NodeKind::executable) continue;
      auto run = engine.run(container.rootfs(), node.path, options.profile_run);
      if (!run.ok()) {
        return make_error(run.error().code,
                          "PGO trial run of " + node.path + ": " + run.error().message);
      }
      if (!run.value().profile_blob.empty()) {
        std::string cwd = node.cwd.empty() ? "/" : node.cwd;
        COMT_TRY_STATUS(container.rootfs().write_file(
            path_join(cwd, toolchain::kDefaultProfileName), run.value().profile_blob));
      }
    }
    // Pass 2: profile-guided build.
    COMT_TRY_STATUS(execute_graph(/*profile_generate=*/false, /*profile_use=*/true, "pu"));
    report.profile_feedback = true;
  } else {
    COMT_TRY_STATUS(execute_graph(false, false, "p0"));
  }

  // Every pass fully committed: fold the journal into one canonical
  // begin+commit snapshot and drop records superseded by the final pass —
  // a PGO journal that lived through instrument→optimize shrinks back to
  // the "pu" commits a resume would actually replay. (A resume of a crash
  // from here re-runs the cheap instrument pass but replays every final-pass
  // job, so the image is still bit-identical.)
  if (options.journal != nullptr) {
    const std::string final_prefix = std::string(want_profile ? "pu" : "p0") + ":";
    COMT_TRY(report.journal_compaction,
             options.journal->compact([&final_prefix](const durable::CommitRecord& commit) {
               return commit.job_id.compare(0, final_prefix.size(), final_prefix) == 0;
             }));
    report.journal_compacted = true;
  }

  // Post-link artifact transformations (binary-level optimizations such as
  // the BOLT-style layout adapter) run on the rebuilt linked images.
  for (int id : graph.roots()) {
    const GraphNode& node = graph.node(id);
    if (node.kind != NodeKind::executable && node.kind != NodeKind::shared_lib) continue;
    auto blob = container.rootfs().read_file(node.path);
    if (!blob.ok() || !toolchain::is_image_blob(blob.value())) continue;
    COMT_TRY(toolchain::LinkedImage artifact, toolchain::parse_image(blob.value()));
    bool changed = false;
    for (const SystemAdapter* adapter : options.adapters) {
      toolchain::LinkedImage before = artifact;
      COMT_TRY_STATUS(adapter->adapt_artifact(artifact, context));
      changed = changed || !(artifact == before);
    }
    if (changed) {
      COMT_TRY_STATUS(container.rootfs().write_file(
          node.path, toolchain::serialize_image(artifact), 0755));
    }
  }

  // Collect the rebuild layer: the rebuilt content of every build-produced
  // file of the application image, stored under /.coMtainer/rebuild at the
  // file's original image path.
  obs::Span commit_span =
      obs::maybe_span(options.tracer, "layer-commit", root_span.id(), "layer-commit");
  vfs::Filesystem rebuild_layer;
  for (const ImageFileEntry& entry : bundle->models.image.files) {
    if (entry.origin != FileOrigin::build_process || entry.build_node < 0) continue;
    const GraphNode& node = graph.node(entry.build_node);
    auto content = container.rootfs().read_file(node.path);
    if (!content.ok()) {
      return make_error(Errc::failed,
                        "rebuild: expected output missing from rebuild container: " +
                            node.path);
    }
    COMT_TRY_STATUS(rebuild_layer.write_file(std::string(kRebuildDir) + entry.path,
                                             std::move(content).value(), 0755));
    ++report.files_rebuilt;
  }
  COMT_TRY_STATUS(rebuild_layer.write_file(
      std::string(kRebuildMetaPath),
      json::serialize(replacements_to_json(report.package_replacements))));

  report.cache_hits = cache_hits.load();
  report.cache_misses = cache_misses.load();
  report.journal_replayed = journal_replayed.load();
  report.journal_committed = journal_committed.load();
  if (options.metrics != nullptr) {
    options.metrics->counter("rebuild.cache.hits").add(report.cache_hits);
    options.metrics->counter("rebuild.cache.misses").add(report.cache_misses);
    options.metrics->counter("rebuild.journal.replayed").add(report.journal_replayed);
    options.metrics->counter("rebuild.journal.committed").add(report.journal_committed);
  }

  // The last crash window: every job is journaled but the rebuilt image is
  // not assembled yet. A resume replays everything and lands here again.
  if (options.fault_injector != nullptr) {
    options.fault_injector->check_crash(kCrashFinish);
  }

  std::string rebuilt_tag = base_tag_of(extended_tag) + std::string(kRebuiltSuffix);
  COMT_TRY(report.image,
           layout.append_layer(extended, rebuild_layer, "coMtainer-rebuild", rebuilt_tag));
  commit_span.end();
  root_span.end();
  if (options.tracer != nullptr) {
    report.profile = obs::profile_phases(*options.tracer, report.root_span);
  }
  return report;
}

Result<RedirectReport> comtainer_redirect(oci::Layout& layout, std::string_view source_tag,
                                          const RedirectOptions& options) {
  if (options.system_repo == nullptr) {
    return make_error(Errc::invalid_argument, "redirect: missing system repository");
  }
  obs::Span redirect_span =
      obs::maybe_span(options.tracer, "redirect", options.parent_span, "redirect");
  redirect_span.annotate("image", source_tag);
  COMT_TRY(oci::Image source, layout.find_image(source_tag));
  COMT_TRY(vfs::Filesystem source_rootfs, layout.flatten(source));
  COMT_TRY(std::shared_ptr<const CacheBundle> bundle,
           cache_bundle(layout, source, &source_rootfs));
  const ImageModel& model = bundle->models.image;

  // Package replacements: from the rebuild layer when present, plus any the
  // caller supplies (redirect-only flows).
  std::map<std::string, std::string> replacements = options.package_replacements;
  if (source_rootfs.is_regular(kRebuildMetaPath)) {
    COMT_TRY(std::string meta_text, source_rootfs.read_file(kRebuildMetaPath));
    COMT_TRY(json::Value meta, json::parse(meta_text));
    for (const auto& [from, to] : replacements_from_json(meta)) {
      replacements.emplace(from, to);
    }
  }

  COMT_TRY(oci::Image rebase, layout.find_image(options.rebase_tag));
  COMT_TRY(vfs::Filesystem rebase_rootfs, layout.flatten(rebase));
  buildexec::Container container(std::move(rebase_rootfs), rebase.config,
                                 options.system_repo);

  RedirectReport report;

  // Install the application's runtime dependencies. A package is taken from
  // the system repository only when an adapter proposed the substitution
  // (the libo decision); otherwise — and when the system repo lacks it —
  // the original image's files are carried over unchanged, so un-adapted
  // redirects preserve the generic stack exactly.
  for (const RuntimePackage& package : model.runtime_packages) {
    auto replacement = replacements.find(package.name);
    if (replacement != replacements.end() &&
        options.system_repo->find(replacement->second) != nullptr) {
      COMT_TRY_STATUS(
          container.run_argv({"apt-get", "install", "-y", replacement->second}));
      ++report.packages_installed;
    } else {
      for (const ImageFileEntry& entry : model.files) {
        if (entry.origin == FileOrigin::package_manager &&
            entry.owner_package == package.name &&
            !container.rootfs().exists(entry.path)) {
          COMT_TRY_STATUS(
              container.rootfs().copy_from(source_rootfs, entry.path, entry.path));
        }
      }
    }
  }

  // Stage rebuilt content out of the source image through the scheduler:
  // each build-produced entry reads its rebuild-layer blob into a private
  // slot (reads of the immutable source rootfs are safe concurrently).
  // Writes into the optimized image happen afterwards, sequentially in
  // model order, so the result is identical at any thread count.
  std::vector<std::optional<std::string>> staged(model.files.size());
  {
    sched::DagScheduler scheduler;
    for (std::size_t i = 0; i < model.files.size(); ++i) {
      const ImageFileEntry& entry = model.files[i];
      if (entry.origin != FileOrigin::build_process) continue;
      std::string rebuilt_path = std::string(kRebuildDir) + entry.path;
      COMT_TRY_STATUS(scheduler.add_job(
          std::to_string(i), {},
          [&source_rootfs, &staged, i, rebuilt_path = std::move(rebuilt_path)]() -> Status {
            auto content = source_rootfs.read_file(rebuilt_path);
            if (content.ok()) staged[i] = std::move(content).value();
            return Status::success();
          }));
    }
    std::unique_ptr<sched::ThreadPool> pool;
    if (options.threads > 1) pool = std::make_unique<sched::ThreadPool>(options.threads);
    COMT_TRY(sched::ScheduleReport schedule, scheduler.run(pool.get()));
    COMT_TRY_STATUS(schedule.first_error());
    report.wall_ms += schedule.wall_ms;
  }

  // Place application files at their original paths: rebuilt content where a
  // rebuild layer provides it, otherwise the original image's bytes.
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const ImageFileEntry& entry = model.files[i];
    switch (entry.origin) {
      case FileOrigin::base_image:
      case FileOrigin::package_manager:
        break;  // supplied by the Rebase image / installed packages
      case FileOrigin::build_process: {
        if (staged[i].has_value()) {
          COMT_TRY_STATUS(
              container.rootfs().write_file(entry.path, std::move(*staged[i]), 0755));
          ++report.files_from_rebuild;
        } else {
          COMT_TRY_STATUS(
              container.rootfs().copy_from(source_rootfs, entry.path, entry.path));
          ++report.files_from_original;
        }
        break;
      }
      case FileOrigin::data:
      case FileOrigin::unknown:
        COMT_TRY_STATUS(
            container.rootfs().copy_from(source_rootfs, entry.path, entry.path));
        ++report.files_from_original;
        break;
    }
  }

  // The optimized image keeps the application's runtime configuration.
  container.config().config = source.config.config;

  buildexec::ImageBuilder builder(layout);
  std::string optimized_tag = base_tag_of(source_tag) + std::string(kRedirectedSuffix);
  COMT_TRY(report.image,
           builder.commit(container, rebase, "coMtainer-redirect", optimized_tag));
  return report;
}

}  // namespace comt::core
