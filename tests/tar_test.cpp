#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "tar/tar.hpp"

namespace comt::tar {
namespace {

vfs::Filesystem sample_tree() {
  vfs::Filesystem fs;
  EXPECT_TRUE(fs.write_file("/etc/conf", "key=value\n").ok());
  EXPECT_TRUE(fs.write_file("/bin/prog", std::string(1500, 'b'), 0755).ok());
  EXPECT_TRUE(fs.make_symlink("/bin/sh", "prog").ok());
  EXPECT_TRUE(fs.make_directories("/empty-dir").ok());
  EXPECT_TRUE(fs.write_file("/zero", "").ok());
  return fs;
}

TEST(TarTest, RoundTripPreservesTree) {
  vfs::Filesystem tree = sample_tree();
  auto back = unpack(pack(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == tree);
}

TEST(TarTest, EmptyTree) {
  vfs::Filesystem tree;
  std::string blob = pack(tree);
  EXPECT_EQ(blob.size(), 1024u);  // just the two terminator blocks
  auto back = unpack(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().node_count(), 0u);
}

TEST(TarTest, Deterministic) {
  EXPECT_EQ(pack(sample_tree()), pack(sample_tree()));
}

TEST(TarTest, BlockAlignment) {
  vfs::Filesystem tree;
  // Sizes straddling the 512-byte block boundary.
  for (std::size_t n : {0u, 1u, 511u, 512u, 513u, 1024u}) {
    ASSERT_TRUE(tree.write_file("/f" + std::to_string(n), std::string(n, 'x')).ok());
  }
  std::string blob = pack(tree);
  EXPECT_EQ(blob.size() % 512, 0u);
  auto back = unpack(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == tree);
}

TEST(TarTest, LongPathsUseLongLink) {
  vfs::Filesystem tree;
  std::string long_dir = "/";
  for (int i = 0; i < 12; ++i) long_dir += "very-long-directory-name-" + std::to_string(i) + "/";
  std::string path = long_dir + "leaf-file.txt";
  ASSERT_GT(path.size(), 100u);
  ASSERT_TRUE(tree.write_file(path, "deep content").ok());
  auto back = unpack(pack(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().read_file(path).value(), "deep content");
}

TEST(TarTest, PreservesModes) {
  vfs::Filesystem tree;
  ASSERT_TRUE(tree.write_file("/x", "1", 0400).ok());
  ASSERT_TRUE(tree.write_file("/y", "2", 0755).ok());
  auto back = unpack(pack(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().lookup("/x")->mode, 0400u);
  EXPECT_TRUE(back.value().lookup("/y")->executable());
}

/// Rewrites the checksum of the header at `offset` the way pack() writes it
/// (unsigned byte sum, checksum field counted as spaces), so an edited
/// header is well-formed again.
void reseal_header(std::string& blob, std::size_t offset) {
  std::fill_n(blob.begin() + static_cast<std::ptrdiff_t>(offset + 148), 8, ' ');
  unsigned sum = 0;
  for (std::size_t i = offset; i < offset + 512; ++i) sum += static_cast<unsigned char>(blob[i]);
  char field[8];
  std::snprintf(field, sizeof field, "%06o", sum);
  std::copy_n(field, 7, blob.begin() + static_cast<std::ptrdiff_t>(offset + 148));
}

TEST(TarTest, TruncatedArchiveFails) {
  std::string blob = pack(sample_tree());
  // Cut inside /bin/prog's 1500-byte payload, after its header is complete.
  auto result = unpack(std::string_view(blob).substr(0, 1100));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::corrupt);
  // Every cut at a block boundary short of the first end-of-archive block,
  // member boundaries included, must read as corrupt, never as a shorter tree.
  const std::size_t end_marker = blob.size() - 1024;
  for (std::size_t cut = 0; cut <= end_marker; cut += 512) {
    auto cut_result = unpack(std::string_view(blob).substr(0, cut));
    ASSERT_FALSE(cut_result.ok()) << "cut at " << cut;
    EXPECT_EQ(cut_result.error().code, Errc::corrupt) << "cut at " << cut;
  }
  // One end-of-archive block is enough.
  auto one_marker = unpack(std::string_view(blob).substr(0, end_marker + 512));
  ASSERT_TRUE(one_marker.ok());
  EXPECT_TRUE(one_marker.value() == sample_tree());
}

TEST(TarTest, FlippedHeaderByteFails) {
  const std::string blob = pack(sample_tree());
  // The first header (/bin/): name [0,100), mode [100,108), size [124,136),
  // checksum [148,156).
  const std::vector<std::pair<std::size_t, std::size_t>> fields = {
      {0, 100}, {100, 108}, {124, 136}, {148, 156}};
  for (const auto& [begin, end] : fields) {
    for (std::size_t at = begin; at < end; ++at) {
      for (unsigned char mask : {0x01, 0x80}) {
        std::string damaged = blob;
        damaged[at] = static_cast<char>(damaged[at] ^ mask);
        auto result = unpack(damaged);
        ASSERT_FALSE(result.ok()) << "byte " << at << " mask " << int(mask);
        EXPECT_EQ(result.error().code, Errc::corrupt) << "byte " << at << " mask " << int(mask);
      }
    }
  }
}

TEST(TarTest, GarbageTypeflagFails) {
  vfs::Filesystem tree;
  ASSERT_TRUE(tree.write_file("/f", "x").ok());
  std::string blob = pack(tree);
  blob[156] = 'Z';  // typeflag byte of the first header
  // A well-formed header with an unknown typeflag: unsupported, not corrupt.
  reseal_header(blob, 0);
  auto result = unpack(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::unsupported);
}

TEST(TarTest, WhiteoutFilesSurviveRoundTrip) {
  // Layer trees carry OCI whiteouts as plain files; tar must not mangle them.
  vfs::Filesystem tree;
  ASSERT_TRUE(tree.write_file("/dir/.wh.removed", "").ok());
  ASSERT_TRUE(tree.write_file("/dir/.wh..wh..opq", "").ok());
  auto back = unpack(pack(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().is_regular("/dir/.wh.removed"));
  EXPECT_TRUE(back.value().is_regular("/dir/.wh..wh..opq"));
}

TEST(TarTest, BinaryContentSurvives) {
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  vfs::Filesystem tree;
  ASSERT_TRUE(tree.write_file("/bin.dat", binary).ok());
  auto back = unpack(pack(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().read_file("/bin.dat").value(), binary);
}

}  // namespace
}  // namespace comt::tar
