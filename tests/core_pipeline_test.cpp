// Front-end, cache storage and back-end, exercised against a real prepared
// application (lulesh) in a shared fixture.
#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/cache.hpp"
#include "core/frontend.hpp"
#include "support/sha256.hpp"
#include "sysmodel/sysmodel.hpp"
#include "tar/tar.hpp"
#include "workloads/harness.hpp"

namespace comt::core {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new workloads::Evaluation(sysmodel::SystemProfile::x86_cluster());
    app_ = workloads::find_app("lulesh");
    ASSERT_NE(app_, nullptr);
    auto prepared = world_->prepare(*app_);
    ASSERT_TRUE(prepared.ok()) << prepared.error().to_string();
    prepared_ = new workloads::PreparedApp(prepared.value());
  }
  static void TearDownTestSuite() {
    delete prepared_;
    delete world_;
    world_ = nullptr;
    prepared_ = nullptr;
  }

  static workloads::Evaluation* world_;
  static const workloads::AppSpec* app_;
  static workloads::PreparedApp* prepared_;
};

workloads::Evaluation* PipelineFixture::world_ = nullptr;
const workloads::AppSpec* PipelineFixture::app_ = nullptr;
workloads::PreparedApp* PipelineFixture::prepared_ = nullptr;

TEST_F(PipelineFixture, ExtendedImagePreservesOriginal) {
  auto dist = world_->layout().find_image(prepared_->dist_tag);
  auto extended = world_->layout().find_image(prepared_->extended_tag);
  ASSERT_TRUE(dist.ok());
  ASSERT_TRUE(extended.ok());
  // Extended = original layers + exactly one cache layer; the original's
  // layers are untouched (OCI layering, §4.5).
  ASSERT_EQ(extended.value().manifest.layers.size(),
            dist.value().manifest.layers.size() + 1);
  for (std::size_t i = 0; i < dist.value().manifest.layers.size(); ++i) {
    EXPECT_EQ(extended.value().manifest.layers[i].digest,
              dist.value().manifest.layers[i].digest);
  }
  EXPECT_TRUE(world_->layout().fsck().ok());
}

TEST_F(PipelineFixture, CacheBundleRoundTrips) {
  auto extended = world_->layout().find_image(prepared_->extended_tag);
  ASSERT_TRUE(extended.ok());
  auto rootfs = world_->layout().flatten(extended.value());
  ASSERT_TRUE(rootfs.ok());
  auto bundle = load_cache(rootfs.value());
  ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();

  // The graph knows the sources, objects, archive and the executable.
  const BuildGraph& graph = bundle.value().models.graph;
  EXPECT_GE(graph.size(), 5u);
  bool saw_exe = false, saw_object = false, saw_source = false;
  for (const GraphNode& node : graph.nodes()) {
    saw_exe |= node.kind == NodeKind::executable;
    saw_object |= node.kind == NodeKind::object;
    saw_source |= node.kind == NodeKind::source;
  }
  EXPECT_TRUE(saw_exe);
  EXPECT_TRUE(saw_object);
  EXPECT_TRUE(saw_source);
  ASSERT_TRUE(graph.topological_order().ok());

  // Every source the graph references is in the cache, content-verified.
  for (const GraphNode& node : graph.nodes()) {
    if (node.is_leaf() && !node.content_digest.empty() &&
        node.path.find("/usr/lib/") == std::string::npos) {
      EXPECT_TRUE(bundle.value().sources.is_regular("/" + node.content_digest)) << node.path;
    }
  }
}

TEST_F(PipelineFixture, CacheExcludesPackageOwnedInputs) {
  auto extended = world_->layout().find_image(prepared_->extended_tag);
  auto rootfs = world_->layout().flatten(extended.value());
  auto bundle = load_cache(rootfs.value());
  ASSERT_TRUE(bundle.ok());
  // System libraries read at link time must NOT be shipped in the cache —
  // the target system substitutes its own (that is the whole point).
  bundle.value().sources.walk([](const std::string&, const vfs::Node& source) {
    EXPECT_FALSE(toolchain::is_image_blob(source.content)) << "library blob leaked into cache";
    return true;
  });
}

TEST_F(PipelineFixture, ImageModelClassifiesAllOrigins) {
  auto extended = world_->layout().find_image(prepared_->extended_tag);
  auto rootfs = world_->layout().flatten(extended.value());
  auto bundle = load_cache(rootfs.value());
  ASSERT_TRUE(bundle.ok());
  const ImageModel& model = bundle.value().models.image;
  auto histogram = model.origin_histogram();
  EXPECT_GT(histogram[FileOrigin::base_image], 0u);
  EXPECT_GT(histogram[FileOrigin::package_manager], 0u);
  EXPECT_GT(histogram[FileOrigin::build_process], 0u);
  // The application binary is a build product tied to a graph node.
  bool found_binary = false;
  for (const ImageFileEntry& entry : model.files) {
    if (entry.path == app_->binary_path()) {
      found_binary = true;
      EXPECT_EQ(entry.origin, FileOrigin::build_process);
      EXPECT_GE(entry.build_node, 0);
    }
  }
  EXPECT_TRUE(found_binary);
  // Runtime packages recorded with their variants.
  EXPECT_FALSE(model.runtime_packages.empty());
  for (const RuntimePackage& package : model.runtime_packages) {
    EXPECT_EQ(package.variant, "generic");
  }
}

TEST_F(PipelineFixture, RebuildProducesRebuiltImage) {
  auto owned = adapted_scheme();
  std::vector<const SystemAdapter*> adapters;
  for (const auto& adapter : owned) adapters.push_back(adapter.get());
  RebuildOptions options;
  options.system = &world_->system();
  options.system_repo = &workloads::system_repo(world_->system());
  options.sysenv_tag = workloads::sysenv_tag(world_->system());
  options.adapters = adapters;
  auto report = comtainer_rebuild(world_->layout(), prepared_->extended_tag, options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().nodes_executed, 0u);
  EXPECT_GT(report.value().files_rebuilt, 0u);
  EXPECT_FALSE(report.value().profile_feedback);
  EXPECT_FALSE(report.value().package_replacements.empty());
  // The rebuilt image carries one more layer than the extended image.
  auto extended = world_->layout().find_image(prepared_->extended_tag);
  EXPECT_EQ(report.value().image.manifest.layers.size(),
            extended.value().manifest.layers.size() + 1);
  // Tagged with the +coMre suffix, like the artifact's index.json.
  auto rebuilt = world_->layout().find_image("lulesh.dist+coMre");
  EXPECT_TRUE(rebuilt.ok());
}

TEST_F(PipelineFixture, RedirectBuildsOptimizedImage) {
  // Self-contained: run the adapted rebuild first (ctest executes each test
  // in its own process, so no state carries over between tests).
  auto owned = adapted_scheme();
  std::vector<const SystemAdapter*> adapters;
  for (const auto& adapter : owned) adapters.push_back(adapter.get());
  RebuildOptions rebuild_options;
  rebuild_options.system = &world_->system();
  rebuild_options.system_repo = &workloads::system_repo(world_->system());
  rebuild_options.sysenv_tag = workloads::sysenv_tag(world_->system());
  rebuild_options.adapters = adapters;
  ASSERT_TRUE(
      comtainer_rebuild(world_->layout(), prepared_->extended_tag, rebuild_options).ok());

  RedirectOptions options;
  options.system = &world_->system();
  options.system_repo = &workloads::system_repo(world_->system());
  options.rebase_tag = workloads::rebase_tag(world_->system());
  auto report = comtainer_redirect(world_->layout(), "lulesh.dist+coMre", options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().packages_installed, 0u);
  EXPECT_GT(report.value().files_from_rebuild, 0u);

  auto optimized = world_->layout().find_image("lulesh.dist+opt");
  ASSERT_TRUE(optimized.ok());
  auto rootfs = world_->layout().flatten(optimized.value());
  ASSERT_TRUE(rootfs.ok());
  // Runtime deps replaced by optimized variants.
  auto db = pkg::Database::load(rootfs.value());
  ASSERT_TRUE(db.ok());
  const pkg::InstalledPackage* mpi = db.value().find("mpich");
  ASSERT_NE(mpi, nullptr);
  EXPECT_EQ(mpi->variant, pkg::Variant::optimized);
  // The app binary is the rebuilt one (native toolchain).
  auto blob = rootfs.value().read_file(app_->binary_path());
  ASSERT_TRUE(blob.ok());
  auto image = toolchain::parse_image(blob.value());
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image.value().codegen.toolchain_id, "vendor-x86");
  // And the optimized image keeps the original entrypoint.
  EXPECT_EQ(optimized.value().config.config.entrypoint,
            std::vector<std::string>{app_->binary_path()});
}

TEST_F(PipelineFixture, PgoFeedbackLoopRuns) {
  auto owned = optimized_scheme();
  std::vector<const SystemAdapter*> adapters;
  for (const auto& adapter : owned) adapters.push_back(adapter.get());
  RebuildOptions options;
  options.system = &world_->system();
  options.system_repo = &workloads::system_repo(world_->system());
  options.sysenv_tag = workloads::sysenv_tag(world_->system());
  options.adapters = adapters;
  options.profile_run = app_->inputs.front().run_request(1);
  auto report = comtainer_rebuild(world_->layout(), prepared_->extended_tag, options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_TRUE(report.value().profile_feedback);

  // The final binary is LTO'd, profile-trained, and NOT instrumented.
  RedirectOptions redirect;
  redirect.system = &world_->system();
  redirect.system_repo = &workloads::system_repo(world_->system());
  redirect.rebase_tag = workloads::rebase_tag(world_->system());
  auto redirected = comtainer_redirect(world_->layout(), "lulesh.dist+coMre", redirect);
  ASSERT_TRUE(redirected.ok());
  auto rootfs = world_->layout().flatten(redirected.value().image);
  auto blob = rootfs.value().read_file(app_->binary_path());
  ASSERT_TRUE(blob.ok());
  auto image = toolchain::parse_image(blob.value());
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(image.value().codegen.lto_applied);
  EXPECT_FALSE(image.value().codegen.pgo_instrumented);
  EXPECT_GT(image.value().codegen.pgo_quality, 0.5);
}

TEST_F(PipelineFixture, RedirectOnlyFlowReplacesPackagesWithoutRebuild) {
  auto tag = world_->redirect_only(*app_, *prepared_);
  ASSERT_TRUE(tag.ok()) << tag.error().to_string();
  auto optimized = world_->layout().find_image(tag.value());
  ASSERT_TRUE(optimized.ok());
  auto rootfs = world_->layout().flatten(optimized.value());
  // Binary is still the ORIGINAL generic build...
  auto blob = rootfs.value().read_file(app_->binary_path());
  ASSERT_TRUE(blob.ok());
  auto image = toolchain::parse_image(blob.value());
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image.value().codegen.toolchain_id, "gnu-generic");
  // ...but the libraries are the system's optimized ones (the libo rung).
  auto db = pkg::Database::load(rootfs.value());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().find("libm")->variant, pkg::Variant::optimized);
}

// ---- the kept cache bundle ------------------------------------------------------

/// cache_bundle() must answer exactly what load_cache(flatten(image)) does.
void expect_same_bundle(const Result<std::shared_ptr<const CacheBundle>>& kept,
                        const Result<CacheBundle>& reference, const std::string& label) {
  ASSERT_EQ(kept.ok(), reference.ok()) << label;
  if (!kept.ok()) {
    EXPECT_EQ(kept.error().code, reference.error().code) << label;
    return;
  }
  const CacheBundle& bundle = *kept.value();
  EXPECT_EQ(json::serialize(bundle.models.graph.to_json()),
            json::serialize(reference.value().models.graph.to_json()))
      << label;
  EXPECT_EQ(json::serialize(bundle.models.image.to_json()),
            json::serialize(reference.value().models.image.to_json()))
      << label;
  EXPECT_TRUE(bundle.sources == reference.value().sources) << label;
}

Result<CacheBundle> load_cache_of_flatten(const oci::Layout& layout, const oci::Image& image) {
  COMT_TRY(vfs::Filesystem rootfs, layout.flatten(image));
  return load_cache(rootfs);
}

RebuildOptions adapted_rebuild(const workloads::Evaluation& world,
                               const std::vector<std::unique_ptr<SystemAdapter>>& owned) {
  RebuildOptions options;
  options.system = &world.system();
  options.system_repo = &workloads::system_repo(world.system());
  options.sysenv_tag = workloads::sysenv_tag(world.system());
  for (const auto& adapter : owned) options.adapters.push_back(adapter.get());
  return options;
}

TEST(CacheBundleTest, MatchesLoadCacheOfTheFlattenWhateverTheLayersAboveOrBelowDo) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(*workloads::find_app("hpccg"));
  ASSERT_TRUE(prepared.ok()) << prepared.error().to_string();
  oci::Layout& layout = world.layout();
  auto extended = layout.find_image(prepared.value().extended_tag);
  auto dist = layout.find_image(prepared.value().dist_tag);
  ASSERT_TRUE(extended.ok() && dist.ok());
  const std::string dir(kCacheDir);

  // The plain extended image: only its cache layer touches kCacheDir.
  auto plain = cache_bundle(layout, extended.value());
  expect_same_bundle(plain, load_cache_of_flatten(layout, extended.value()), "plain");
  ASSERT_TRUE(plain.ok());

  // A lower layer adds a source under kCacheDir/sources.
  vfs::Filesystem extra;
  const std::string extra_source = "int extra;\n";
  ASSERT_TRUE(
      extra.write_file(dir + "/sources/" + Sha256::hex_digest(extra_source), extra_source).ok());
  auto with_extra = layout.append_layer(dist.value(), extra, "extra", "lower:1");
  ASSERT_TRUE(with_extra.ok());
  auto cache_tree = layout.layer_tree(extended.value().manifest.layers.back());
  ASSERT_TRUE(cache_tree.ok());
  auto lower = layout.append_layer(with_extra.value(), *cache_tree.value(), "cache", "lower:2");
  ASSERT_TRUE(lower.ok());

  // An upper layer replaces build_graph.json with another valid graph.
  BuildGraph graph = plain.value()->models.graph;
  graph.nodes().front().cwd = "/elsewhere";
  vfs::Filesystem new_graph;
  ASSERT_TRUE(
      new_graph.write_file(dir + "/build_graph.json", json::serialize(graph.to_json())).ok());
  auto upper = layout.append_layer(extended.value(), new_graph, "graph", "upper");
  ASSERT_TRUE(upper.ok());

  // A whiteout of kCacheDir, and an opaque marker on its parent.
  vfs::Filesystem whiteout;
  ASSERT_TRUE(whiteout.write_file("/.coMtainer/.wh.cache", "").ok());
  auto hidden = layout.append_layer(extended.value(), whiteout, "whiteout", "whiteout");
  ASSERT_TRUE(hidden.ok());
  vfs::Filesystem opaque;
  ASSERT_TRUE(opaque.write_file(std::string("/.coMtainer/") + std::string(vfs::kOpaqueMarker), "")
                  .ok());
  auto emptied = layout.append_layer(extended.value(), opaque, "opaque", "opaque");
  ASSERT_TRUE(emptied.ok());

  for (const auto& [label, image] :
       {std::pair<std::string, oci::Image>{"lower source", lower.value()},
        {"upper graph", upper.value()},
        {"whiteout", hidden.value()},
        {"opaque parent", emptied.value()}}) {
    const Result<CacheBundle> reference = load_cache_of_flatten(layout, image);
    expect_same_bundle(cache_bundle(layout, image), reference, label);
    // Each image's cache differs from the cache layer's own.
    if (reference.ok()) {
      EXPECT_FALSE(reference.value().sources == plain.value()->sources &&
                   json::serialize(reference.value().models.graph.to_json()) ==
                       json::serialize(plain.value()->models.graph.to_json()))
          << label;
    }
  }
  EXPECT_FALSE(load_cache_of_flatten(layout, hidden.value()).ok());
  EXPECT_FALSE(load_cache_of_flatten(layout, emptied.value()).ok());
}

TEST(CacheBundleTest, RebuildAfterTheCacheLayerRotsServesTheRottenBytesBundle) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  auto prepared = world.prepare(*workloads::find_app("hpccg"));
  ASSERT_TRUE(prepared.ok()) << prepared.error().to_string();
  oci::Layout& layout = world.layout();
  const std::string tag = prepared.value().extended_tag;
  auto extended = layout.find_image(tag);
  ASSERT_TRUE(extended.ok());
  const auto owned = adapted_scheme();
  const RebuildOptions options = adapted_rebuild(world, owned);
  // A first rebuild keeps the bundle with the cache layer's buffer.
  ASSERT_TRUE(comtainer_rebuild(layout, tag, options).ok());
  auto before = cache_bundle(layout, extended.value());
  ASSERT_TRUE(before.ok());

  // The cache layer rots into another valid tarball: the cache minus one
  // source the graph needs.
  const oci::Descriptor cache_layer = extended.value().manifest.layers.back();
  auto tree = layout.layer_tree(cache_layer);
  ASSERT_TRUE(tree.ok());
  vfs::Filesystem rotten = *tree.value();
  auto sources = rotten.list_directory(std::string(kCacheDir) + "/sources");
  ASSERT_TRUE(sources.ok() && !sources.value().empty());
  ASSERT_TRUE(
      rotten.remove(std::string(kCacheDir) + "/sources/" + sources.value().front()).ok());
  layout.set_blob_bytes(cache_layer.digest, tar::pack(rotten));

  auto after = cache_bundle(layout, extended.value());
  expect_same_bundle(after, load_cache_of_flatten(layout, extended.value()), "rotten");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value()->sources.node_count() + 1, before.value()->sources.node_count());
  auto rebuilt = comtainer_rebuild(layout, tag, options);
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.error().code, Errc::corrupt);
  EXPECT_NE(rebuilt.error().message.find("cache is missing input"), std::string::npos)
      << rebuilt.error().message;
}

TEST(BackendErrorsTest, RebuildRequiresExtendedImage) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const workloads::AppSpec* app = workloads::find_app("hpccg");
  ASSERT_NE(app, nullptr);
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok());
  RebuildOptions options;
  options.system = &world.system();
  options.system_repo = &workloads::system_repo(world.system());
  options.sysenv_tag = workloads::sysenv_tag(world.system());
  // Pointing at the plain dist image (no cache layer) must fail cleanly.
  auto report = comtainer_rebuild(world.layout(), prepared.value().dist_tag, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::not_found);
}

TEST(BackendErrorsTest, MissingOptionsRejected) {
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  RebuildOptions no_system;
  EXPECT_FALSE(comtainer_rebuild(world.layout(), "x", no_system).ok());
  RedirectOptions no_repo;
  EXPECT_FALSE(comtainer_redirect(world.layout(), "x", no_repo).ok());
}

TEST(BackendTest, BaseTagStripping) {
  EXPECT_EQ(base_tag_of("app.dist+coM"), "app.dist");
  EXPECT_EQ(base_tag_of("app.dist+coMre"), "app.dist");
  EXPECT_EQ(base_tag_of("app.dist+opt"), "app.dist");
  EXPECT_EQ(base_tag_of("app.dist"), "app.dist");
}

TEST(FrontendTest, GraphFromRecordHandlesFailuresAndCopies) {
  buildexec::BuildRecord record;
  buildexec::ToolInvocation failed;
  failed.argv = {"gcc", "-c", "broken.cc"};
  failed.succeeded = false;
  record.invocations.push_back(failed);
  buildexec::ToolInvocation copy;
  copy.argv = {std::string(buildexec::kCopyPseudoTool), "--from=build", "/a"};
  record.invocations.push_back(copy);
  buildexec::ToolInvocation untracked;
  untracked.argv = {"mkdir", "-p", "/x"};
  record.invocations.push_back(untracked);

  auto graph = build_graph_from_record(record);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().size(), 0u);  // nothing graph-worthy happened
}

TEST(FrontendTest, SharedInputsCreateSharedNodes) {
  buildexec::BuildRecord record;
  buildexec::ToolInvocation first;
  first.argv = {"gcc", "-c", "a.cc", "-o", "a.o"};
  first.inputs_read = {"/w/a.cc", "/w/common.h"};
  first.outputs = {"/w/a.o"};
  first.digests = {{"/w/a.cc", "da"}, {"/w/common.h", "dh"}, {"/w/a.o", "doa"}};
  record.invocations.push_back(first);
  buildexec::ToolInvocation second;
  second.argv = {"gcc", "-c", "b.cc", "-o", "b.o"};
  second.inputs_read = {"/w/b.cc", "/w/common.h"};
  second.outputs = {"/w/b.o"};
  second.digests = {{"/w/b.cc", "db"}, {"/w/common.h", "dh"}, {"/w/b.o", "dob"}};
  record.invocations.push_back(second);

  auto graph = build_graph_from_record(record);
  ASSERT_TRUE(graph.ok());
  // a.cc, common.h, a.o, b.cc, b.o — common.h node is shared, not duplicated.
  EXPECT_EQ(graph.value().size(), 5u);
  int header = graph.value().find_by_digest("dh");
  ASSERT_GE(header, 0);
  int a_o = graph.value().find_by_digest("doa");
  int b_o = graph.value().find_by_digest("dob");
  auto contains = [&](int node, int dep) {
    const auto& deps = graph.value().node(node).deps;
    return std::find(deps.begin(), deps.end(), dep) != deps.end();
  };
  EXPECT_TRUE(contains(a_o, header));
  EXPECT_TRUE(contains(b_o, header));
}

}  // namespace
}  // namespace comt::core
