// The evaluation harness itself: the Evaluation facade, native-build script
// generation, and the measurement invariants the benches rely on.
#include <gtest/gtest.h>

#include <map>

#include "dockerfile/dockerfile.hpp"
#include "sysmodel/sysmodel.hpp"
#include "toolchain/artifact.hpp"
#include "workloads/harness.hpp"

namespace comt::workloads {
namespace {

TEST(HarnessTest, PrepareTagsAndSizes) {
  Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const AppSpec* app = find_app("hpccg");
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared.value().dist_tag, "hpccg.dist");
  EXPECT_EQ(prepared.value().extended_tag, "hpccg.dist+coM");
  EXPECT_GT(prepared.value().image_bytes, 0u);
  EXPECT_GT(prepared.value().cache_layer_bytes, 0u);
  EXPECT_LT(prepared.value().cache_layer_bytes, prepared.value().image_bytes);
  // Both tags resolvable; stage images are kept for coMtainer-build.
  EXPECT_TRUE(world.layout().find_image("hpccg.dist").ok());
  EXPECT_TRUE(world.layout().find_image("hpccg.dist+coM").ok());
  EXPECT_TRUE(world.layout().find_image("hpccg.dist.stage0").ok());
}

// Every corpus app's rebuilt ("+coMre") and redirected ("+opt") manifest
// digests under the adapted scheme, pinned: the rebuild and redirect read
// their inputs through memos (kept cache bundles, node digests), and a memo
// that served anything but what the image holds would move one of these.
// A change that means to alter rebuilt output updates the table.
TEST(HarnessTest, AdaptedCorpusDigestsArePinned) {
  const std::map<std::string, std::pair<std::string, std::string>> pinned = {
      {"hpl", {"sha256:f4d2927b47caf6bd8552302ff9bd6d99863ad60d7a96cc4dd6142fbae3e6b999",
               "sha256:458299a72a530b576cef41172c27af7a7bbad08fee6d6841063ebc513bf356b2"}},
      {"hpcg", {"sha256:f7cf5e6a424c2c1b945e7807ebe0fba9aa230704f07e71faa90f3cc6b9cab103",
                "sha256:7d7c11826c2941dbcc44fdb11b9e4385b8413dc7a5a75141d4632301656fb58f"}},
      {"lulesh", {"sha256:051e1365d3d3caf06dae80fe4744f5ca71e7b320506576b64d1f9ab227a4c29d",
                  "sha256:8c614609c3a299d421044feb259954f1d548d0350dfe55823905968ed31ac0f7"}},
      {"comd", {"sha256:f66f796677c4ba85606f2ae58c52c9d4a2ee74dbf1ae24be8d510f75949650c2",
                "sha256:3e3663df6015461103344d7ab1f42d03ccebbb45c93a45a8720b8c2c58277d92"}},
      {"hpccg", {"sha256:97448baf1ee6899f557db3e736a25c4ea9df32930dbef137244c026f95ee929d",
                 "sha256:47f2e4169d5b83e93b0717fe677e27651f5c6ea8a5c042feb788378ba4e033b2"}},
      {"miniaero", {"sha256:64cbc4e63cbd67ebd2dd271519eecc4ba07e32f5e28c640be6276f4818e42a0f",
                    "sha256:b33e98384c20c8cda9c0d60bb5456cb2e39857d675747e5d36f17d063bacd307"}},
      {"miniamr", {"sha256:df2c6055ddf272c2bcf2468f494ba1cf14318974ecbc782a322d3be99cff30b8",
                   "sha256:cfe65205a63954ff3c7038a36e73794845b449475273254e558f07e9dbfa2fad"}},
      {"minife", {"sha256:703549c00599dfb252dbadf961ecf2cd4f1ffcd4a68da89f6b517f4318c3d484",
                  "sha256:0f11a569913c1edcddf88ff1a3717f55cdf7abdb585cb7135f491b747a1f146a"}},
      {"minimd", {"sha256:d1a64c638bed46c7f81887b686adae45f7faf2218d3be3203f71af743d632c2e",
                  "sha256:90774dc67a0fe75c5ed74ea1fc678f3fa9606a8c0afa0e4e4133ea1158d10d4a"}},
      {"lammps", {"sha256:1f64406fad43e67962a0a2733261c0784c8edb4b98ad2ebbb1f1288035c578e4",
                  "sha256:ac972a4c8e7d01b0f4e882bb1eb2db0c11815f4b7a079e160f80007d1028f0ae"}},
      {"openmx", {"sha256:8415a11d4a620956b5e252b2e93ba269d6f6ac2a7cd2ddeb8c3365251d3f491b",
                  "sha256:2e914ccb4e4d990e53b75542eacf4117c742885ae8e0df32101e0003a01ddecd"}},
  };
  for (const AppSpec& app : corpus()) {
    SCOPED_TRACE(app.name);
    Evaluation world(sysmodel::SystemProfile::x86_cluster());
    auto prepared = world.prepare(app);
    ASSERT_TRUE(prepared.ok()) << prepared.error().to_string();
    auto optimized = world.adapt(app, prepared.value());
    ASSERT_TRUE(optimized.ok()) << optimized.error().to_string();
    const std::string base = core::base_tag_of(prepared.value().extended_tag);
    auto rebuilt = world.layout().find_image(base + std::string(core::kRebuiltSuffix));
    auto redirected = world.layout().find_image(optimized.value());
    ASSERT_TRUE(rebuilt.ok() && redirected.ok());
    auto expected = pinned.find(app.name);
    if (expected == pinned.end()) {
      ADD_FAILURE() << "not pinned: {\"" << app.name << "\", {\""
                    << rebuilt.value().manifest_digest.value << "\", \""
                    << redirected.value().manifest_digest.value << "\"}},";
      continue;
    }
    EXPECT_EQ(rebuilt.value().manifest_digest.value, expected->second.first);
    EXPECT_EQ(redirected.value().manifest_digest.value, expected->second.second);
  }
}

TEST(HarnessTest, PrepareIsRepeatable) {
  Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const AppSpec* app = find_app("minimd");
  auto first = world.prepare(*app);
  auto second = world.prepare(*app);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().image_bytes, second.value().image_bytes);
  EXPECT_EQ(first.value().cache_layer_bytes, second.value().cache_layer_bytes);
}

TEST(HarnessTest, RunImageErrors) {
  Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const AppSpec* app = find_app("minimd");
  auto missing = world.run_image("no-such:tag", app->inputs.front(), 1);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Errc::not_found);
  // The base image has no entrypoint.
  auto no_entry = world.run_image(ubuntu_tag("amd64"), app->inputs.front(), 1);
  ASSERT_FALSE(no_entry.ok());
  EXPECT_EQ(no_entry.error().code, Errc::invalid_argument);
}

TEST(HarnessTest, NativeDockerfileUsesSystemStack) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  const AppSpec* app = find_app("comd");
  std::string text = dockerfile_native(*app, system);
  EXPECT_NE(text.find("FROM " + sysenv_tag(system)), std::string::npos);
  EXPECT_NE(text.find("FROM " + rebase_tag(system)), std::string::npos);
  EXPECT_NE(text.find("/opt/system/bin"), std::string::npos);
  EXPECT_EQ(text.find("comt/env"), std::string::npos);
  auto parsed = dockerfile::parse(text);
  ASSERT_TRUE(parsed.ok());
}

TEST(HarnessTest, NativeBinaryUsesVendorToolchainAndNativeMarch) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  Evaluation world(system);
  const AppSpec* app = find_app("comd");
  auto tag = world.build_native(*app);
  ASSERT_TRUE(tag.ok()) << tag.error().to_string();
  auto image = world.layout().find_image(tag.value());
  ASSERT_TRUE(image.ok());
  auto rootfs = world.layout().flatten(image.value());
  auto exe = toolchain::parse_image(rootfs.value().read_file(app->binary_path()).value());
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(exe.value().codegen.toolchain_id, "vendor-x86");
  EXPECT_EQ(exe.value().codegen.opt_level, 3);
  EXPECT_EQ(exe.value().codegen.march, "x86-64-v4");  // -march=native resolved
  EXPECT_EQ(exe.value().codegen.vector_lanes, 8);
}

TEST(HarnessTest, SchemesOrderingForATypicalApp) {
  Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const AppSpec* app = find_app("comd");
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok());
  auto times = world.run_schemes(*app, prepared.value(), app->inputs.front(), 16);
  ASSERT_TRUE(times.ok());
  // comd is vec/LTO/PGO-friendly: strict improvement down the ladder.
  EXPECT_GT(times.value().original, times.value().adapted);
  EXPECT_GT(times.value().adapted, times.value().optimized);
  EXPECT_DOUBLE_EQ(times.value().adapted, times.value().native);
}

TEST(HarnessTest, MoreNodesReduceComputeTime) {
  Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const AppSpec* app = find_app("minimd");
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok());
  auto one = world.run_image(prepared.value().dist_tag, app->inputs.front(), 1);
  auto sixteen = world.run_image(prepared.value().dist_tag, app->inputs.front(), 16);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(sixteen.ok());
  EXPECT_GT(one.value(), sixteen.value());
}

TEST(HarnessTest, MakeDrivenAppsProduceSameModelShape) {
  // miniaero builds through make; its graph must look exactly like a
  // hand-written-RUN app's: sources, objects, executable, full provenance.
  Evaluation world(sysmodel::SystemProfile::x86_cluster());
  const AppSpec* app = find_app("miniaero");
  ASSERT_TRUE(app->use_make);
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok()) << prepared.error().to_string();
  auto extended = world.layout().find_image(prepared.value().extended_tag);
  auto rootfs = world.layout().flatten(extended.value());
  auto bundle = core::load_cache(rootfs.value());
  ASSERT_TRUE(bundle.ok());
  int objects = 0, executables = 0;
  for (const core::GraphNode& node : bundle.value().models.graph.nodes()) {
    objects += node.kind == core::NodeKind::object;
    executables += node.kind == core::NodeKind::executable;
  }
  EXPECT_EQ(objects, static_cast<int>(app->units.size()));
  EXPECT_EQ(executables, 1);
  // And the whole rebuild pipeline works on the make-recorded graph.
  auto adapted = world.adapt(*app, prepared.value());
  ASSERT_TRUE(adapted.ok()) << adapted.error().to_string();
}

}  // namespace
}  // namespace comt::workloads
