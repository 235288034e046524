// Assorted edge cases across modules that the per-module suites don't pin.
#include <gtest/gtest.h>

#include "json/json.hpp"
#include "oci/convert.hpp"
#include "sysmodel/sysmodel.hpp"
#include "toolchain/options.hpp"
#include "vfs/vfs.hpp"

namespace comt {
namespace {

TEST(VfsEdgeTest, ListDirectoryOfFileFails) {
  vfs::Filesystem fs;
  ASSERT_TRUE(fs.write_file("/f", "x").ok());
  auto result = fs.list_directory("/f");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::invalid_argument);
  EXPECT_FALSE(fs.list_directory("/missing").ok());
}

TEST(VfsEdgeTest, ResolveOfAbsentPathIsJustThePath) {
  // resolve() normalizes and follows links; a dangling path resolves to
  // itself (the caller then gets not_found from the actual access).
  vfs::Filesystem fs;
  EXPECT_EQ(fs.resolve("/no/such//./thing").value(), "/no/such/thing");
}

TEST(VfsEdgeTest, SymlinkThroughDirectoryComponent) {
  vfs::Filesystem fs;
  ASSERT_TRUE(fs.write_file("/real/dir/file", "x").ok());
  ASSERT_TRUE(fs.make_symlink("/alias", "/real/dir").ok());
  // Final-component resolution works; intermediate-component link chasing is
  // not implemented (documented limitation — layers never rely on it).
  EXPECT_EQ(fs.resolve("/alias").value(), "/real/dir");
}

TEST(VfsEdgeTest, EmptyDirectoryDiffRoundTrip) {
  vfs::Filesystem base;
  vfs::Filesystem target;
  ASSERT_TRUE(target.make_directories("/only/dirs/here").ok());
  vfs::LayerDiff delta = vfs::diff(base, target);
  EXPECT_EQ(delta.added, 3u);
  vfs::Filesystem rebuilt = base;
  ASSERT_TRUE(vfs::apply_layer(rebuilt, delta.upper).ok());
  EXPECT_TRUE(rebuilt == target);
}

TEST(VfsEdgeTest, FileContentIsStoredAtExactSize) {
  // Built by appends, like an edited source file: spare capacity behind it.
  std::string content;
  for (std::size_t i = 0; i < 10 * 1024; ++i) content += static_cast<char>('a' + i % 26);
  ASSERT_GT(content.capacity(), content.size());
  const std::string expected = content;

  vfs::Filesystem fs;
  ASSERT_TRUE(fs.write_file("/etc/os-release", "linux\n").ok());
  const std::uint64_t bytes_before = fs.total_file_bytes();
  ASSERT_TRUE(fs.write_file("/data/blob", std::move(content)).ok());
  const vfs::Node* node = fs.lookup("/data/blob");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->content.capacity(), node->content.size());
  EXPECT_EQ(node->content, expected);
  EXPECT_EQ(fs.read_file("/data/blob").value(), expected);
  EXPECT_EQ(fs.total_file_bytes(), bytes_before + expected.size());

  vfs::Filesystem same;
  ASSERT_TRUE(same.write_file("/etc/os-release", "linux\n").ok());
  ASSERT_TRUE(same.write_file("/data/blob", expected).ok());
  EXPECT_TRUE(fs == same);
}

TEST(VfsEdgeTest, ApplyLayerBindsTheLayersFileAndSymlinkNodes) {
  vfs::Filesystem base;
  ASSERT_TRUE(base.write_file("/etc/conf", "old").ok());
  ASSERT_TRUE(base.write_file("/gone", "x").ok());
  vfs::Filesystem layer;
  ASSERT_TRUE(layer.write_file("/etc/conf", "new", 0600).ok());
  ASSERT_TRUE(layer.write_file("/bin/tool", std::string(4096, 't'), 0755).ok());
  ASSERT_TRUE(layer.make_symlink("/bin/alias", "tool").ok());
  ASSERT_TRUE(layer.write_file("/.wh.gone", "").ok());
  ASSERT_TRUE(vfs::apply_layer(base, layer).ok());
  for (const char* path : {"/etc/conf", "/bin/tool", "/bin/alias"}) {
    EXPECT_EQ(base.lookup(path), layer.lookup(path)) << path;
  }
  EXPECT_EQ(base.read_file("/etc/conf").value(), "new");
  EXPECT_EQ(base.read_file("/bin/alias").value(), std::string(4096, 't'));
  EXPECT_FALSE(base.exists("/gone"));
  EXPECT_FALSE(base.exists("/.wh.gone"));
  // Writing through base replaces the node; the layer keeps its own.
  ASSERT_TRUE(base.write_file("/bin/tool", "patched").ok());
  EXPECT_EQ(layer.read_file("/bin/tool").value(), std::string(4096, 't'));
}

TEST(JsonEdgeTest, SerializationIsAFixedPoint) {
  for (const char* text :
       {"[0.5,1,100000,1e-05]", R"({"a":1,"b":[true,null]})", "[[[[[1]]]]]"}) {
    auto first = json::parse(text);
    ASSERT_TRUE(first.ok());
    std::string once = json::serialize(first.value());
    auto second = json::parse(once);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(json::serialize(second.value()), once);
  }
}

TEST(JsonEdgeTest, LargeIntegersSurvive) {
  auto parsed = json::parse("123456789012345");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_int(), 123456789012345LL);
  EXPECT_EQ(json::serialize(parsed.value()), "123456789012345");
}

TEST(OptionsEdgeTest, InputsBeforeAndAfterOptions) {
  auto cmd = toolchain::parse_command(
      std::vector<std::string>{"gcc", "early.o", "-O2", "late.o", "-o", "out"});
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd.value().inputs, (std::vector<std::string>{"early.o", "late.o"}));
}

TEST(OptionsEdgeTest, OutputJoinedSpelling) {
  auto cmd = toolchain::parse_command(std::vector<std::string>{"gcc", "-oout", "x.o"});
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd.value().output, "out");
}

TEST(OptionsEdgeTest, DoubleDashOptionsSurvive) {
  auto cmd = toolchain::parse_command(
      std::vector<std::string>{"gcc", "--version"});
  ASSERT_TRUE(cmd.ok());
  bool saw = false;
  for (const auto& option : cmd.value().generic) saw |= option.name == "--version";
  EXPECT_TRUE(saw);
}

TEST(SysmodelEdgeTest, WorkstationProfileIsSlowerThanCluster) {
  const sysmodel::SystemProfile& workstation = sysmodel::SystemProfile::user_workstation();
  const sysmodel::SystemProfile& cluster = sysmodel::SystemProfile::x86_cluster();
  EXPECT_EQ(workstation.arch, "amd64");
  EXPECT_EQ(workstation.nodes, 1);
  EXPECT_LT(workstation.scalar_ips, cluster.scalar_ips);
  EXPECT_LT(workstation.max_lanes, cluster.max_lanes);
  // The workstation tunes for what distro compilers emit — the whole reason
  // generic images look fine locally and only disappoint on the cluster.
  EXPECT_TRUE(workstation.march_is_tuned("x86-64"));
  EXPECT_FALSE(cluster.march_is_tuned("x86-64"));
}

TEST(ConvertEdgeTest, FlatImageOfEmptyImage) {
  oci::Layout layout;
  oci::ImageConfig config;
  auto image = layout.create_image(config, {vfs::Filesystem{}}, "empty");
  ASSERT_TRUE(image.ok());
  auto flat = oci::to_flat_image(layout, image.value());
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(flat.value().rootfs.is_regular("/ch/environment"));
  auto sif = oci::to_sif(layout, image.value());
  ASSERT_TRUE(sif.ok());
  auto back = oci::from_sif(sif.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().entrypoint.empty());
}

}  // namespace
}  // namespace comt
