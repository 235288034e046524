#include <gtest/gtest.h>

#include <random>

#include "registry/registry.hpp"
#include "store/store.hpp"

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

/// A layer whose tar spans several content-defined chunks.
vfs::Filesystem chunky_tree(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::string bytes(24 * 1024, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng());
  vfs::Filesystem fs;
  EXPECT_TRUE(fs.write_file("/lib/app.so", std::move(bytes)).ok());
  return fs;
}

std::shared_ptr<transfer::ChunkStore> mem_chunk_store() {
  return std::make_shared<transfer::ChunkStore>(std::make_shared<store::MemStore>());
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
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "chunk dedup" : "plain");
    oci::Layout local;
    auto image = local.create_image(config(), {tree("v"), chunky_tree(7)}, "app:v");
    ASSERT_TRUE(image.ok());
    Registry hub;
    auto chunks = mem_chunk_store();
    if (dedup) hub.enable_chunk_dedup(chunks);
    ASSERT_TRUE(hub.push(local, "app:v", "org/app", "1").ok());
    const Stats first = hub.stats();
    ASSERT_TRUE(hub.push(local, "app:v", "org/app", "2").ok());
    const Stats second = hub.stats();
    EXPECT_EQ(second.pushed_bytes, first.pushed_bytes);  // everything deduplicated
    EXPECT_TRUE(hub.has("org/app", "2"));

    // The re-push reuses every chunk of its config and layers, each once.
    std::size_t blob_chunks = 0;
    std::uint64_t blob_bytes = 0;
    std::vector<oci::Descriptor> blobs = image.value().manifest.layers;
    blobs.push_back(image.value().manifest.config);
    for (const oci::Descriptor& blob : blobs) {
      auto bytes = local.get_blob(blob.digest);
      ASSERT_TRUE(bytes.ok());
      auto built = transfer::build_manifest(bytes.value(), chunks->params());
      ASSERT_TRUE(built.ok());
      blob_chunks += built.value().chunks.size();
      blob_bytes += blob.size;
    }
    ASSERT_GT(blob_chunks, blobs.size());  // some blob spans several chunks
    EXPECT_EQ(second.chunks_reused - first.chunks_reused, dedup ? blob_chunks : 0u);
    EXPECT_EQ(second.chunk_bytes_deduped - first.chunk_bytes_deduped, dedup ? blob_bytes : 0u);
    EXPECT_EQ(second.chunks_moved, first.chunks_moved);
    EXPECT_EQ(second.chunk_bytes_moved, first.chunk_bytes_moved);
  }
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
    auto chunks = mem_chunk_store();
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

TEST(RegistryTest, RepushOfAPulledBlobThatRottedIsRefused) {
  oci::Layout local;
  auto image = local.create_image(config(), {chunky_tree(5)}, "app:dev");
  ASSERT_TRUE(image.ok());
  const oci::Digest layer = image.value().manifest.layers.front().digest;
  Registry hub;
  ASSERT_TRUE(hub.push(local, "app:dev", "org/app", "1.0").ok());

  // The pull adopts the hub's proven buffer; then the puller's copy rots.
  oci::Layout puller;
  ASSERT_TRUE(hub.pull("org/app", "1.0", puller, "pulled").ok());
  std::string rotten = puller.get_blob(layer).value();
  rotten[rotten.size() / 2] ^= 0x01;
  puller.set_blob_bytes(layer, rotten);

  Registry mirror;
  Status pushed = mirror.push(puller, "pulled", "org/app", "1.0");
  ASSERT_FALSE(pushed.ok());
  EXPECT_EQ(pushed.error().code, Errc::corrupt);
  EXPECT_NE(pushed.error().message.find(layer.value), std::string::npos);
  EXPECT_FALSE(mirror.has("org/app", "1.0"));
  // The hub's own buffer was never touched.
  oci::Layout again;
  ASSERT_TRUE(hub.pull("org/app", "1.0", again, "pulled").ok());
  EXPECT_TRUE(again.fsck().ok());
}

/// Pushes `local`'s "app:dev" as "org/app:1.0" through a push that dies
/// writing its second blob, the layer, and leaves it torn; a second push
/// deduplicates onto the torn layer and publishes the image.
void push_with_torn_layer(Registry& hub, const oci::Layout& local) {
  support::FaultInjector faults;
  faults.tear_at(oci::kBlobPutSite, 2);
  hub.set_fault_injector(&faults);
  EXPECT_THROW((void)hub.push(local, "app:dev", "org/app", "1.0"), support::CrashInjected);
  hub.set_fault_injector(nullptr);
  ASSERT_TRUE(hub.push(local, "app:dev", "org/app", "1.0").ok());
}

TEST(RegistryTest, PullOfTornHubBlobIsCorruptAndAdoptsNothing) {
  enum class Damage { torn_blob, torn_blob_chunk_cache, flipped_chunk_checksum };
  for (const Damage damage :
       {Damage::torn_blob, Damage::torn_blob_chunk_cache, Damage::flipped_chunk_checksum}) {
    SCOPED_TRACE(static_cast<int>(damage));
    oci::Layout local;
    auto image = local.create_image(config(), {chunky_tree(3)}, "app:dev");
    ASSERT_TRUE(image.ok());
    const oci::Digest layer = image.value().manifest.layers.front().digest;

    Registry hub;
    auto chunk_backend = std::make_shared<store::MemStore>();
    auto chunks = std::make_shared<transfer::ChunkStore>(chunk_backend);
    transfer::ChunkStore cache(std::make_shared<store::MemStore>());
    PullOptions options;
    if (damage == Damage::flipped_chunk_checksum) {
      hub.enable_chunk_dedup(chunks);
      ASSERT_TRUE(hub.push(local, "app:dev", "org/app", "1.0").ok());
      // Flip a bit in the checksum field ([codec][u32 size][u64 fnv]) of the
      // frame of one of the layer's several chunks.
      auto manifest = chunks->manifest(layer.value);
      ASSERT_TRUE(manifest.ok());
      ASSERT_GT(manifest.value()->chunks.size(), 1u);
      const std::string chunk = manifest.value()->chunks.front().digest;
      const std::string key = "transfer/chunk/sha256/" + chunk.substr(chunk.find(':') + 1);
      auto frame = chunk_backend->get(key);
      ASSERT_TRUE(frame.ok());
      frame.value()[5] ^= 0x01;
      ASSERT_TRUE(chunk_backend->put(key, frame.value()).ok());
      options.local_chunks = &cache;
    } else {
      push_with_torn_layer(hub, local);
      if (damage == Damage::torn_blob_chunk_cache) {
        hub.enable_chunk_dedup(chunks);
        options.local_chunks = &cache;
      }
    }

    oci::Layout destination;
    ASSERT_TRUE(destination.create_image(config(), {tree("unrelated")}, "other").ok());
    const std::size_t held = destination.blob_count();
    Status pulled = hub.pull("org/app", "1.0", destination, "pulled", options);
    ASSERT_FALSE(pulled.ok());
    EXPECT_EQ(pulled.error().code, Errc::corrupt);
    EXPECT_NE(pulled.error().message.find(layer.value), std::string::npos)
        << pulled.error().message;
    EXPECT_EQ(destination.blob_count(), held);
    EXPECT_FALSE(destination.has_blob(image.value().manifest.config.digest));
    EXPECT_FALSE(destination.find_image("pulled").ok());
    EXPECT_TRUE(destination.fsck().ok());
  }
}

TEST(RegistryTest, TornHeldBlobIsNotBackfilledIntoTheChunkStore) {
  oci::Layout local;
  auto image = local.create_image(config(), {tree("payload")}, "app:dev");
  ASSERT_TRUE(image.ok());
  Registry hub;
  push_with_torn_layer(hub, local);

  // Dedup enabled after the tear: the next push chunks the blobs the hub
  // already holds, but only those whose bytes match their digest. The push
  // still succeeds; the torn layer is left for fsck.
  auto chunks = mem_chunk_store();
  hub.enable_chunk_dedup(chunks);
  ASSERT_TRUE(hub.push(local, "app:dev", "org/app", "2.0").ok());
  EXPECT_TRUE(chunks->contains_blob(image.value().manifest.config.digest.value));
  EXPECT_EQ(chunks->blob_count(), 1u);
  EXPECT_FALSE(hub.fsck().clean());

  // With every tag gone, the sweep leaves nothing behind in either store.
  ASSERT_TRUE(hub.remove("org/app", "1.0").ok());
  ASSERT_TRUE(hub.remove("org/app", "2.0").ok());
  EXPECT_EQ(hub.stats().blobs, 0u);
  EXPECT_EQ(chunks->blob_count(), 0u);
  EXPECT_EQ(chunks->chunk_count(), 0u);
}

}  // namespace
}  // namespace comt::registry
