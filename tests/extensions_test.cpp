// Extensions beyond the paper's evaluated prototype: source obfuscation
// (§4.6), the BOLT-style layout adapter (§5.3 future work), and the strict
// package-substitution semantics of redirect.
#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/cache.hpp"
#include "sysmodel/sysmodel.hpp"
#include "toolchain/source.hpp"
#include "workloads/harness.hpp"

namespace comt {
namespace {

// ---- obfuscate_source ---------------------------------------------------------

TEST(ObfuscateTest, PreservesSemanticLines) {
  toolchain::SourceGenSpec spec;
  spec.unit_name = "secret";
  toolchain::KernelTrait kernel;
  kernel.name = "proprietary_solver";
  kernel.work = 50;
  kernel.frac_vec = 0.4;
  spec.kernels = {kernel};
  spec.includes = {"common.h"};
  spec.uses_mpi = true;
  spec.filler_lines = 30;
  std::string original = toolchain::generate_source(spec);
  std::string obfuscated = toolchain::obfuscate_source(original);

  auto before = toolchain::analyze_source(original);
  auto after = toolchain::analyze_source(obfuscated);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value().kernels, after.value().kernels);
  EXPECT_EQ(before.value().includes, after.value().includes);
  EXPECT_EQ(before.value().uses_mpi, after.value().uses_mpi);
}

TEST(ObfuscateTest, HidesIdentifiers) {
  std::string source =
      "double proprietary_trade_secret(double* x) {\n"
      "  return x[0] * kSecretConstant;\n"
      "}\n";
  std::string obfuscated = toolchain::obfuscate_source(source);
  EXPECT_EQ(obfuscated.find("proprietary_trade_secret"), std::string::npos);
  EXPECT_EQ(obfuscated.find("kSecretConstant"), std::string::npos);
}

TEST(ObfuscateTest, KeepsIsaMarkers) {
  std::string obfuscated =
      toolchain::obfuscate_source("// @comt-isa x86_64\nint secret;\n");
  auto info = toolchain::analyze_source(obfuscated);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().isa_specific, std::vector<std::string>{"x86_64"});
}

TEST(ObfuscateTest, SizeRoughlyPreserved) {
  std::string source(40, 'x');
  source = "void f() { " + source + " }\n" + source + "\n";
  std::string obfuscated = toolchain::obfuscate_source(source);
  EXPECT_NEAR(static_cast<double>(obfuscated.size()),
              static_cast<double>(source.size()), 30.0);
}

// ---- obfuscated cache end-to-end ---------------------------------------------

TEST(ObfuscatedCacheTest, RebuildWorksFromObfuscatedSources) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  const workloads::AppSpec* app = workloads::find_app("comd");
  ASSERT_NE(app, nullptr);

  // Manual user-side flow with obfuscation on.
  oci::Layout layout;
  ASSERT_TRUE(workloads::install_user_images(layout, system.arch).ok());
  ASSERT_TRUE(workloads::install_system_images(layout, system).ok());
  auto file = dockerfile::parse(workloads::dockerfile_text(*app, system.arch, true));
  ASSERT_TRUE(file.ok());
  buildexec::ImageBuilder builder(layout);
  builder.set_apt_source(&workloads::ubuntu_repo(system.arch));
  buildexec::BuildRecord record;
  ASSERT_TRUE(builder.build(file.value(), workloads::build_context(*app), "comd.dist",
                            "", &record).ok());
  auto stage = layout.find_image("comd.dist.stage0");
  auto build_rootfs = layout.flatten(stage.value());
  core::CacheOptions cache_options;
  cache_options.obfuscate_sources = true;
  ASSERT_TRUE(core::comtainer_build(layout, "comd.dist",
                                    workloads::base_tag(system.arch), record,
                                    build_rootfs.value(), cache_options).ok());

  // The cached sources contain no original identifiers...
  auto extended = layout.find_image("comd.dist+coM");
  ASSERT_TRUE(extended.ok());
  auto extended_rootfs = layout.flatten(extended.value());
  auto bundle = core::load_cache(extended_rootfs.value());
  ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();
  bool saw_source = false;
  bundle.value().sources.walk([&](const std::string&, const vfs::Node& source) {
    if (source.content.find("@comt-kernel") != std::string::npos) {
      saw_source = true;
      EXPECT_EQ(source.content.find("static const int k_"), std::string::npos)
          << "filler identifiers leaked";
    }
    return true;
  });
  EXPECT_TRUE(saw_source);

  // ...and the system-side rebuild still works end-to-end.
  auto owned = core::adapted_scheme();
  std::vector<const core::SystemAdapter*> adapters;
  for (const auto& adapter : owned) adapters.push_back(adapter.get());
  core::RebuildOptions rebuild;
  rebuild.system = &system;
  rebuild.system_repo = &workloads::system_repo(system);
  rebuild.sysenv_tag = workloads::sysenv_tag(system);
  rebuild.adapters = adapters;
  auto rebuilt = core::comtainer_rebuild(layout, "comd.dist+coM", rebuild);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().to_string();
  core::RedirectOptions redirect;
  redirect.system = &system;
  redirect.system_repo = &workloads::system_repo(system);
  redirect.rebase_tag = workloads::rebase_tag(system);
  auto redirected = core::comtainer_redirect(layout, "comd.dist+coMre", redirect);
  ASSERT_TRUE(redirected.ok()) << redirected.error().to_string();
  auto rootfs = layout.flatten(redirected.value().image);
  sysmodel::ExecutionEngine engine(system);
  auto report = engine.run(rootfs.value(), app->binary_path(),
                           app->inputs.front().run_request(16));
  ASSERT_TRUE(report.ok()) << report.error().to_string();
}

// ---- layout adapter -------------------------------------------------------------

TEST(LayoutAdapterTest, RequiresProfile) {
  toolchain::LinkedImage artifact;
  artifact.codegen.pgo_quality = 0;
  core::LayoutAdapter adapter;
  core::AdapterContext context;
  ASSERT_TRUE(adapter.adapt_artifact(artifact, context).ok());
  EXPECT_FALSE(artifact.codegen.layout_optimized);

  artifact.codegen.pgo_quality = 0.9;
  toolchain::ObjectCode object;
  object.codegen.pgo_quality = 0.9;
  artifact.objects.push_back(object);
  ASSERT_TRUE(adapter.adapt_artifact(artifact, context).ok());
  EXPECT_TRUE(artifact.codegen.layout_optimized);
  EXPECT_TRUE(artifact.objects[0].codegen.layout_optimized);
}

TEST(LayoutAdapterTest, ImprovesBranchyKernelsOnlyPositively) {
  toolchain::KernelTrait kernel;
  kernel.name = "k";
  kernel.work = 100;
  kernel.frac_branch = 1.0;
  kernel.pgo_response = -0.4;  // a profile-hostile kernel

  toolchain::LinkedImage exe;
  exe.target_arch = "amd64";
  toolchain::ObjectCode object;
  object.codegen.opt_level = 2;
  object.codegen.march = "x86-64-v3";
  object.kernels = {kernel};
  exe.objects = {object};

  vfs::Filesystem fs;
  ASSERT_TRUE(fs.write_file("/app", toolchain::serialize_image(exe), 0755).ok());
  sysmodel::ExecutionEngine engine(sysmodel::SystemProfile::x86_cluster());
  double baseline = engine.run(fs, "/app").value().seconds;

  exe.objects[0].codegen.layout_optimized = true;
  ASSERT_TRUE(fs.write_file("/app", toolchain::serialize_image(exe), 0755).ok());
  // Negative pgo_response: layout clamps to zero benefit — never a penalty.
  EXPECT_NEAR(engine.run(fs, "/app").value().seconds, baseline, 1e-9);

  exe.objects[0].kernels[0].pgo_response = 0.5;
  ASSERT_TRUE(fs.write_file("/app", toolchain::serialize_image(exe), 0755).ok());
  double positive = engine.run(fs, "/app").value().seconds;
  exe.objects[0].codegen.layout_optimized = false;
  ASSERT_TRUE(fs.write_file("/app", toolchain::serialize_image(exe), 0755).ok());
  double without = engine.run(fs, "/app").value().seconds;
  EXPECT_LT(positive, without);
}

TEST(LayoutAdapterTest, EndToEndOnTopOfPgo) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  const workloads::AppSpec* app = workloads::find_app("miniamr");
  workloads::Evaluation world(system);
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok());

  auto owned = core::optimized_scheme();
  std::vector<const core::SystemAdapter*> adapters;
  for (const auto& adapter : owned) adapters.push_back(adapter.get());
  auto pgo_tag =
      world.transform(prepared.value(), adapters, app->inputs.front(), 16);
  ASSERT_TRUE(pgo_tag.ok());
  auto pgo_seconds = world.run_image(pgo_tag.value(), app->inputs.front(), 16);
  ASSERT_TRUE(pgo_seconds.ok());

  core::LayoutAdapter layout;
  adapters.push_back(&layout);
  auto layout_tag =
      world.transform(prepared.value(), adapters, app->inputs.front(), 16);
  ASSERT_TRUE(layout_tag.ok()) << layout_tag.error().to_string();
  auto layout_seconds = world.run_image(layout_tag.value(), app->inputs.front(), 16);
  ASSERT_TRUE(layout_seconds.ok());
  EXPECT_LT(layout_seconds.value(), pgo_seconds.value());
}

// ---- redirect substitution semantics ------------------------------------------

TEST(RedirectSemanticsTest, UnproposedPackagesKeepGenericFiles) {
  // cxxo-only transform: binaries are native, libraries stay generic.
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  const workloads::AppSpec* app = workloads::find_app("minife");
  workloads::Evaluation world(system);
  auto prepared = world.prepare(*app);
  ASSERT_TRUE(prepared.ok());
  core::ToolchainAdapter cxxo;
  auto tag = world.transform(prepared.value(), {&cxxo}, app->inputs.front(), 16);
  ASSERT_TRUE(tag.ok()) << tag.error().to_string();
  auto image = world.layout().find_image(tag.value());
  auto rootfs = world.layout().flatten(image.value());
  ASSERT_TRUE(rootfs.ok());
  auto blob = rootfs.value().read_file("/usr/lib/libblas.so");
  ASSERT_TRUE(blob.ok());
  auto lib = toolchain::parse_image(blob.value());
  ASSERT_TRUE(lib.ok());
  EXPECT_DOUBLE_EQ(lib.value().attribute("libspeed", 0), 1.0);  // still generic
  auto binary = toolchain::parse_image(
      rootfs.value().read_file(app->binary_path()).value());
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(binary.value().codegen.toolchain_id, "vendor-x86");  // but rebuilt
}

}  // namespace
}  // namespace comt
