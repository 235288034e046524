#include <gtest/gtest.h>

#include <thread>

#include "support/sha256.hpp"
#include "vfs/vfs.hpp"

namespace comt::vfs {
namespace {

Filesystem sample_tree() {
  Filesystem fs;
  EXPECT_TRUE(fs.write_file("/etc/os-release", "linux\n").ok());
  EXPECT_TRUE(fs.write_file("/usr/bin/tool", "#!bin\n", 0755).ok());
  EXPECT_TRUE(fs.make_symlink("/usr/bin/alias", "tool").ok());
  EXPECT_TRUE(fs.make_directories("/var/empty").ok());
  return fs;
}

TEST(VfsTest, RootAlwaysExists) {
  Filesystem fs;
  EXPECT_TRUE(fs.is_directory("/"));
  EXPECT_EQ(fs.node_count(), 0u);
}

TEST(VfsTest, WriteCreatesAncestors) {
  Filesystem fs;
  ASSERT_TRUE(fs.write_file("/a/b/c.txt", "hi").ok());
  EXPECT_TRUE(fs.is_directory("/a"));
  EXPECT_TRUE(fs.is_directory("/a/b"));
  EXPECT_TRUE(fs.is_regular("/a/b/c.txt"));
  EXPECT_EQ(fs.read_file("/a/b/c.txt").value(), "hi");
}

TEST(VfsTest, OverwriteReplacesContent) {
  Filesystem fs;
  ASSERT_TRUE(fs.write_file("/f", "one").ok());
  ASSERT_TRUE(fs.write_file("/f", "two", 0755).ok());
  EXPECT_EQ(fs.read_file("/f").value(), "two");
  EXPECT_TRUE(fs.lookup("/f")->executable());
}

TEST(VfsTest, CannotWriteOverDirectory) {
  Filesystem fs;
  ASSERT_TRUE(fs.make_directories("/d").ok());
  EXPECT_FALSE(fs.write_file("/d", "x").ok());
}

TEST(VfsTest, CannotUseFileAsDirectory) {
  Filesystem fs;
  ASSERT_TRUE(fs.write_file("/f", "x").ok());
  EXPECT_FALSE(fs.write_file("/f/child", "y").ok());
  EXPECT_FALSE(fs.make_directories("/f").ok());
}

TEST(VfsTest, SymlinkResolution) {
  Filesystem fs = sample_tree();
  EXPECT_EQ(fs.resolve("/usr/bin/alias").value(), "/usr/bin/tool");
  EXPECT_EQ(fs.read_file("/usr/bin/alias").value(), "#!bin\n");
}

TEST(VfsTest, AbsoluteSymlinkTarget) {
  Filesystem fs;
  ASSERT_TRUE(fs.write_file("/real/file", "data").ok());
  ASSERT_TRUE(fs.make_symlink("/link", "/real/file").ok());
  EXPECT_EQ(fs.read_file("/link").value(), "data");
}

TEST(VfsTest, SymlinkChain) {
  Filesystem fs;
  ASSERT_TRUE(fs.write_file("/target", "x").ok());
  ASSERT_TRUE(fs.make_symlink("/l1", "/target").ok());
  ASSERT_TRUE(fs.make_symlink("/l2", "/l1").ok());
  ASSERT_TRUE(fs.make_symlink("/l3", "/l2").ok());
  EXPECT_EQ(fs.read_file("/l3").value(), "x");
}

TEST(VfsTest, SymlinkLoopDetected) {
  Filesystem fs;
  ASSERT_TRUE(fs.make_symlink("/a", "/b").ok());
  ASSERT_TRUE(fs.make_symlink("/b", "/a").ok());
  auto result = fs.resolve("/a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::corrupt);
}

TEST(VfsTest, ReadMissingFileFails) {
  Filesystem fs;
  auto result = fs.read_file("/nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::not_found);
}

TEST(VfsTest, ListDirectory) {
  Filesystem fs = sample_tree();
  auto names = fs.list_directory("/usr/bin");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"alias", "tool"}));
  // Only immediate children.
  auto root = fs.list_directory("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), (std::vector<std::string>{"etc", "usr", "var"}));
}

TEST(VfsTest, RemoveSubtree) {
  Filesystem fs = sample_tree();
  ASSERT_TRUE(fs.remove("/usr").ok());
  EXPECT_FALSE(fs.exists("/usr"));
  EXPECT_FALSE(fs.exists("/usr/bin/tool"));
  EXPECT_TRUE(fs.exists("/etc/os-release"));
  EXPECT_FALSE(fs.remove("/usr").ok());
  EXPECT_FALSE(fs.remove("/").ok());
}

TEST(VfsTest, RenameMovesSubtree) {
  Filesystem fs = sample_tree();
  ASSERT_TRUE(fs.rename("/usr", "/opt/relocated").ok());
  EXPECT_FALSE(fs.exists("/usr"));
  EXPECT_EQ(fs.read_file("/opt/relocated/bin/tool").value(), "#!bin\n");
  EXPECT_TRUE(fs.is_symlink("/opt/relocated/bin/alias"));
}

TEST(VfsTest, RenameIntoOwnSubtreeRejected) {
  Filesystem fs;
  ASSERT_TRUE(fs.make_directories("/d/sub").ok());
  EXPECT_FALSE(fs.rename("/d", "/d/sub/x").ok());
}

TEST(VfsTest, CopyFromOtherFilesystem) {
  Filesystem source = sample_tree();
  Filesystem dest;
  ASSERT_TRUE(dest.copy_from(source, "/usr", "/copied").ok());
  EXPECT_EQ(dest.read_file("/copied/bin/tool").value(), "#!bin\n");
  // Single file copy.
  ASSERT_TRUE(dest.copy_from(source, "/etc/os-release", "/os").ok());
  EXPECT_EQ(dest.read_file("/os").value(), "linux\n");
  // File copy into an existing directory lands inside it.
  ASSERT_TRUE(dest.make_directories("/into").ok());
  ASSERT_TRUE(dest.copy_from(source, "/etc/os-release", "/into").ok());
  EXPECT_EQ(dest.read_file("/into/os-release").value(), "linux\n");
}

TEST(VfsTest, WalkVisitsInPathOrder) {
  Filesystem fs = sample_tree();
  std::vector<std::string> paths;
  fs.walk([&](const std::string& path, const Node&) {
    paths.push_back(path);
    return true;
  });
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
  EXPECT_EQ(paths.front(), "/etc");
  // Early exit.
  int count = 0;
  fs.walk([&](const std::string&, const Node&) { return ++count < 2; });
  EXPECT_EQ(count, 2);
}

TEST(VfsTest, TotalFileBytes) {
  Filesystem fs = sample_tree();
  EXPECT_EQ(fs.total_file_bytes(), 6u + 6u);  // "linux\n" + "#!bin\n"
}

// ---- content digests ---------------------------------------------------------

TEST(VfsTest, DigestIsTheContentSha256WithReadFileSemantics) {
  Filesystem fs = sample_tree();
  EXPECT_EQ(fs.digest("/usr/bin/tool").value(), Sha256::hex_digest("#!bin\n"));
  EXPECT_EQ(fs.digest("/usr/bin/alias").value(), Sha256::hex_digest("#!bin\n"));
  EXPECT_EQ(fs.digest("/no/such").error().code, Errc::not_found);
  EXPECT_EQ(fs.digest("/var/empty").error().code, Errc::invalid_argument);
}

TEST(VfsTest, DigestFollowsAWriteFileReplacement) {
  Filesystem fs = sample_tree();
  ASSERT_EQ(fs.digest("/etc/os-release").value(), Sha256::hex_digest("linux\n"));
  ASSERT_TRUE(fs.write_file("/etc/os-release", "plan9\n").ok());
  EXPECT_EQ(fs.digest("/etc/os-release").value(), Sha256::hex_digest("plan9\n"));
}

TEST(VfsTest, CopiesShareTheDigestMemoAndStayIsolated) {
  Filesystem fs = sample_tree();
  const Filesystem copy = fs;
  // One node, so one memo: whichever tree asks first hashes for both.
  ASSERT_EQ(copy.lookup("/etc/os-release"), fs.lookup("/etc/os-release"));
  EXPECT_EQ(fs.digest("/etc/os-release").value(), Sha256::hex_digest("linux\n"));
  EXPECT_EQ(copy.digest("/etc/os-release").value(), Sha256::hex_digest("linux\n"));
  // A write binds a fresh node on one side only.
  ASSERT_TRUE(fs.write_file("/etc/os-release", "plan9\n").ok());
  EXPECT_EQ(fs.digest("/etc/os-release").value(), Sha256::hex_digest("plan9\n"));
  EXPECT_EQ(copy.digest("/etc/os-release").value(), Sha256::hex_digest("linux\n"));
  // A copied node value may take new content before it is published: it
  // does not carry the memo of the content it was copied with.
  Node value = *copy.lookup("/etc/os-release");
  value.content = "edited\n";
  EXPECT_EQ(value.digest(), Sha256::hex_digest("edited\n"));
}

TEST(VfsTest, NodeEqualityIgnoresTheDigestMemo) {
  Filesystem hashed;
  Filesystem plain;
  ASSERT_TRUE(hashed.write_file("/f", "same").ok());
  ASSERT_TRUE(plain.write_file("/f", "same").ok());
  ASSERT_TRUE(hashed.digest("/f").ok());
  EXPECT_TRUE(*hashed.lookup("/f") == *plain.lookup("/f"));
  EXPECT_TRUE(hashed == plain);
}

TEST(VfsTest, ConcurrentDigestsOfOneSharedNodeAgree) {
  Filesystem fs;
  std::string content(1 << 20, '\0');
  for (std::size_t i = 0; i < content.size(); ++i) content[i] = static_cast<char>(i * 131);
  const std::string expected = Sha256::hex_digest(content);
  ASSERT_TRUE(fs.write_file("/big", std::move(content)).ok());
  std::vector<std::string> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    // Each thread reads its own copy of the tree; all copies share the node.
    threads.emplace_back([&fs, &seen, t] {
      const Filesystem copy = fs;
      seen[t] = copy.digest("/big").value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& digest : seen) EXPECT_EQ(digest, expected);
  EXPECT_EQ(fs.digest("/big").value(), expected);
}

// ---- diff / apply_layer ------------------------------------------------------

TEST(LayerTest, DiffDetectsAddModifyDelete) {
  Filesystem base = sample_tree();
  Filesystem target = base;
  ASSERT_TRUE(target.write_file("/new.txt", "n").ok());
  ASSERT_TRUE(target.write_file("/etc/os-release", "changed\n").ok());
  ASSERT_TRUE(target.remove("/usr/bin/tool").ok());

  LayerDiff delta = diff(base, target);
  EXPECT_EQ(delta.added, 1u);
  EXPECT_EQ(delta.modified, 1u);
  EXPECT_EQ(delta.deleted, 1u);
  EXPECT_TRUE(delta.upper.is_regular("/new.txt"));
  EXPECT_TRUE(delta.upper.is_regular("/usr/bin/.wh.tool"));
}

TEST(LayerTest, DeletedDirectoryYieldsSingleWhiteout) {
  Filesystem base = sample_tree();
  Filesystem target = base;
  ASSERT_TRUE(target.remove("/usr").ok());
  LayerDiff delta = diff(base, target);
  EXPECT_EQ(delta.deleted, 1u);
  EXPECT_TRUE(delta.upper.is_regular("/.wh.usr"));
}

TEST(LayerTest, ApplyWhiteoutRemoves) {
  Filesystem base = sample_tree();
  Filesystem layer;
  ASSERT_TRUE(layer.write_file("/usr/bin/.wh.tool", "").ok());
  ASSERT_TRUE(apply_layer(base, layer).ok());
  EXPECT_FALSE(base.exists("/usr/bin/tool"));
  EXPECT_TRUE(base.exists("/usr/bin/alias"));
}

TEST(LayerTest, OpaqueDirectoryHidesLowerContent) {
  Filesystem base = sample_tree();
  Filesystem layer;
  ASSERT_TRUE(layer.write_file(std::string("/usr/bin/") + std::string(kOpaqueMarker), "").ok());
  ASSERT_TRUE(layer.write_file("/usr/bin/fresh", "f").ok());
  ASSERT_TRUE(apply_layer(base, layer).ok());
  EXPECT_FALSE(base.exists("/usr/bin/tool"));
  EXPECT_FALSE(base.exists("/usr/bin/alias"));
  EXPECT_EQ(base.read_file("/usr/bin/fresh").value(), "f");
}

TEST(LayerTest, TypeChangeReplacesNode) {
  Filesystem base;
  ASSERT_TRUE(base.make_directories("/node/with/children").ok());
  Filesystem layer;
  ASSERT_TRUE(layer.write_file("/node", "now a file").ok());
  ASSERT_TRUE(apply_layer(base, layer).ok());
  EXPECT_TRUE(base.is_regular("/node"));
  EXPECT_FALSE(base.exists("/node/with"));
}

// Property: apply(base, diff(base, target)) == target, over varied fixtures.
struct TreePair {
  const char* name;
  Filesystem (*base)();
  Filesystem (*target)();
};

Filesystem empty_tree() { return Filesystem(); }
Filesystem deep_tree() {
  Filesystem fs;
  EXPECT_TRUE(fs.write_file("/a/b/c/d/e.txt", "deep").ok());
  EXPECT_TRUE(fs.make_symlink("/a/link", "b/c").ok());
  return fs;
}
Filesystem mutated_sample() {
  Filesystem fs = sample_tree();
  EXPECT_TRUE(fs.remove("/etc").ok());
  EXPECT_TRUE(fs.write_file("/usr/bin/tool", "v2", 0700).ok());
  EXPECT_TRUE(fs.write_file("/var/empty/now-used", "x").ok());
  EXPECT_TRUE(fs.make_symlink("/etc", "/var").ok());  // dir -> symlink type change
  return fs;
}

// Without this, gtest prints GetParam() as raw bytes, pointers included, so
// the listed test names would change with every build and every run.
void PrintTo(const TreePair& pair, std::ostream* os) { *os << pair.name; }

class DiffApplyRoundTrip : public ::testing::TestWithParam<TreePair> {};

TEST_P(DiffApplyRoundTrip, ApplyOfDiffReconstructsTarget) {
  Filesystem base = GetParam().base();
  Filesystem target = GetParam().target();
  LayerDiff delta = diff(base, target);
  Filesystem rebuilt = base;
  ASSERT_TRUE(apply_layer(rebuilt, delta.upper).ok());
  EXPECT_TRUE(rebuilt == target) << "tree mismatch for " << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, DiffApplyRoundTrip,
    ::testing::Values(TreePair{"empty->sample", &empty_tree, &sample_tree},
                      TreePair{"sample->empty", &sample_tree, &empty_tree},
                      TreePair{"sample->mutated", &sample_tree, &mutated_sample},
                      TreePair{"empty->deep", &empty_tree, &deep_tree},
                      TreePair{"deep->sample", &deep_tree, &sample_tree},
                      TreePair{"identical", &sample_tree, &sample_tree}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace comt::vfs
