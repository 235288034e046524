#include <gtest/gtest.h>

#include "registry/registry.hpp"

namespace comt::registry {
namespace {

oci::ImageConfig config() {
  oci::ImageConfig c;
  c.config.entrypoint = {"/app"};
  return c;
}

vfs::Filesystem tree(std::string_view marker) {
  vfs::Filesystem fs;
  EXPECT_TRUE(fs.write_file("/data", std::string(marker)).ok());
  return fs;
}

TEST(RegistryTest, PushPullRoundTrip) {
  oci::Layout local;
  auto image = local.create_image(config(), {tree("payload")}, "app:dev");
  ASSERT_TRUE(image.ok());

  Registry hub;
  ASSERT_TRUE(hub.push(local, "app:dev", "org/app", "1.0").ok());
  EXPECT_TRUE(hub.has("org/app", "1.0"));
  EXPECT_FALSE(hub.has("org/app", "2.0"));

  oci::Layout remote;
  ASSERT_TRUE(hub.pull("org/app", "1.0", remote, "pulled").ok());
  auto pulled = remote.find_image("pulled");
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(pulled.value().manifest_digest, image.value().manifest_digest);
  auto rootfs = remote.flatten(pulled.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/data").value(), "payload");
}

TEST(RegistryTest, PullUnknownFails) {
  Registry hub;
  oci::Layout local;
  auto result = hub.pull("no/such", "tag", local, "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::not_found);
}

TEST(RegistryTest, PushUnknownLocalTagFails) {
  Registry hub;
  oci::Layout local;
  EXPECT_FALSE(hub.push(local, "ghost:tag", "org/x", "1").ok());
}

TEST(RegistryTest, SharedLayersDeduplicate) {
  oci::Layout local;
  vfs::Filesystem base_layer = tree("shared-base");
  auto a = local.create_image(config(), {base_layer, tree("a")}, "a:1");
  auto b = local.create_image(config(), {base_layer, tree("b")}, "b:1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  Registry hub;
  ASSERT_TRUE(hub.push(local, "a:1", "org/a", "1").ok());
  std::uint64_t after_first = hub.stats().pushed_bytes;
  ASSERT_TRUE(hub.push(local, "b:1", "org/b", "1").ok());
  std::uint64_t second_push = hub.stats().pushed_bytes - after_first;
  // The shared base layer must not be re-transferred.
  EXPECT_LT(second_push, after_first);
  EXPECT_EQ(hub.stats().repositories, 2u);
}

TEST(RegistryTest, RepushSameImageTransfersAlmostNothing) {
  oci::Layout local;
  ASSERT_TRUE(local.create_image(config(), {tree("v")}, "app:v").ok());
  Registry hub;
  ASSERT_TRUE(hub.push(local, "app:v", "org/app", "1").ok());
  std::uint64_t first = hub.stats().pushed_bytes;
  ASSERT_TRUE(hub.push(local, "app:v", "org/app", "2").ok());
  EXPECT_EQ(hub.stats().pushed_bytes, first);  // everything deduplicated
  EXPECT_TRUE(hub.has("org/app", "2"));
}

TEST(RegistryTest, StatsTrackStore) {
  oci::Layout local;
  ASSERT_TRUE(local.create_image(config(), {tree("z")}, "z:1").ok());
  Registry hub;
  ASSERT_TRUE(hub.push(local, "z:1", "org/z", "1").ok());
  Stats stats = hub.stats();
  EXPECT_EQ(stats.repositories, 1u);
  EXPECT_GT(stats.blobs, 0u);
  EXPECT_GT(stats.stored_bytes, 0u);
  EXPECT_EQ(stats.pushed_bytes, stats.stored_bytes);
  EXPECT_EQ(stats.pulled_bytes, 0u);
}

TEST(RegistryTest, PushOfDamagedLocalBlobIsRefused) {
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "chunk dedup" : "plain");
    oci::Layout local;
    auto image = local.create_image(config(), {tree("payload")}, "app:dev");
    ASSERT_TRUE(image.ok());
    const oci::Digest layer = image.value().manifest.layers.front().digest;
    local.set_blob_bytes(layer, "garbage");

    Registry hub;
    auto chunks = std::make_shared<transfer::ChunkStore>(std::make_shared<store::MemStore>());
    if (dedup) hub.enable_chunk_dedup(chunks);
    Status pushed = hub.push(local, "app:dev", "org/app", "1.0");
    ASSERT_FALSE(pushed.ok());
    EXPECT_EQ(pushed.error().code, Errc::corrupt);
    EXPECT_NE(pushed.error().message.find(layer.value), std::string::npos);
    EXPECT_FALSE(hub.has("org/app", "1.0"));
    EXPECT_TRUE(hub.fsck().clean());
    EXPECT_FALSE(chunks->contains_blob(layer.value));
    EXPECT_EQ(chunks->blob_count(), dedup ? 1u : 0u);  // the config only
  }
}

TEST(RegistryTest, PullOfTornHubBlobIsCorruptAndAdoptsNothing) {
  oci::Layout local;
  auto image = local.create_image(config(), {tree("payload")}, "app:dev");
  ASSERT_TRUE(image.ok());
  const oci::Digest layer = image.value().manifest.layers.front().digest;

  // The push dies writing its second blob, the layer, and leaves it torn.
  Registry hub;
  support::FaultInjector faults;
  faults.tear_at(oci::kBlobPutSite, 2);
  hub.set_fault_injector(&faults);
  EXPECT_THROW((void)hub.push(local, "app:dev", "org/app", "1.0"), support::CrashInjected);
  hub.set_fault_injector(nullptr);
  // A second push deduplicates onto the torn layer and publishes the image.
  ASSERT_TRUE(hub.push(local, "app:dev", "org/app", "1.0").ok());

  oci::Layout destination;
  ASSERT_TRUE(destination.create_image(config(), {tree("unrelated")}, "other").ok());
  const std::size_t held = destination.blob_count();
  Status pulled = hub.pull("org/app", "1.0", destination, "pulled");
  ASSERT_FALSE(pulled.ok());
  EXPECT_EQ(pulled.error().code, Errc::corrupt);
  EXPECT_NE(pulled.error().message.find(layer.value), std::string::npos);
  EXPECT_EQ(destination.blob_count(), held);
  EXPECT_FALSE(destination.has_blob(image.value().manifest.config.digest));
  EXPECT_FALSE(destination.find_image("pulled").ok());
  EXPECT_TRUE(destination.fsck().ok());
}

}  // namespace
}  // namespace comt::registry
