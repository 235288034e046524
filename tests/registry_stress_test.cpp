// Concurrency and lifecycle tests for the shared registry: parallel
// push/pull from many threads (the rebuild service's access pattern, and
// pulls through local chunk caches), list/remove, and unreferenced-blob
// garbage collection.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

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

TEST(RegistryStressTest, ConcurrentPushPullKeepsEveryImageIntact) {
  constexpr int kThreads = 8;
  constexpr int kImagesPerThread = 6;
  Registry hub;

  // A shared base layer every thread pushes — the dedup path under contention.
  vfs::Filesystem base_layer = tree("shared-base");

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hub, &base_layer, &failures, t] {
      for (int i = 0; i < kImagesPerThread; ++i) {
        std::string name = "org/app" + std::to_string(t);
        std::string tag = "v" + std::to_string(i);
        std::string marker = name + ":" + tag;
        oci::Layout local;
        if (!local.create_image(config(), {base_layer, tree(marker)}, "work").ok() ||
            !hub.push(local, "work", name, tag).ok()) {
          ++failures;
          continue;
        }
        // Immediately pull back what we pushed, racing other pushers.
        oci::Layout pulled;
        if (!hub.pull(name, tag, pulled, "check").ok()) {
          ++failures;
          continue;
        }
        auto image = pulled.find_image("check");
        auto rootfs = pulled.flatten(image.value());
        if (!rootfs.ok() || rootfs.value().read_file("/data").value_or("") != marker) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  Stats stats = hub.stats();
  EXPECT_EQ(stats.repositories, static_cast<std::size_t>(kThreads * kImagesPerThread));
  EXPECT_EQ(hub.list().size(), static_cast<std::size_t>(kThreads * kImagesPerThread));
  // Every image must still flatten to its own marker after the storm.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kImagesPerThread; ++i) {
      std::string name = "org/app" + std::to_string(t);
      std::string tag = "v" + std::to_string(i);
      oci::Layout out;
      ASSERT_TRUE(hub.pull(name, tag, out, "x").ok()) << name << ":" << tag;
      auto rootfs = out.flatten(out.find_image("x").value());
      ASSERT_TRUE(rootfs.ok());
      EXPECT_EQ(rootfs.value().read_file("/data").value(), name + ":" + tag);
    }
  }
}

TEST(RegistryStressTest, ListIsSortedAndResolveMatchesPush) {
  Registry hub;
  oci::Layout local;
  auto image = local.create_image(config(), {tree("z")}, "work");
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(hub.push(local, "work", "org/b", "1").ok());
  ASSERT_TRUE(hub.push(local, "work", "org/a", "2").ok());
  ASSERT_TRUE(hub.push(local, "work", "org/a", "1").ok());

  EXPECT_EQ(hub.list(), (std::vector<std::string>{"org/a:1", "org/a:2", "org/b:1"}));
  auto digest = hub.resolve("org/a", "1");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), image.value().manifest_digest);
  EXPECT_EQ(hub.resolve("org/a", "9").error().code, Errc::not_found);
}

TEST(RegistryStressTest, RemoveCollectsOnlyUnreferencedBlobs) {
  Registry hub;
  oci::Layout local;
  vfs::Filesystem shared = tree("shared-base");
  ASSERT_TRUE(local.create_image(config(), {shared, tree("only-a")}, "a").ok());
  ASSERT_TRUE(local.create_image(config(), {shared, tree("only-b")}, "b").ok());
  ASSERT_TRUE(hub.push(local, "a", "org/a", "1").ok());
  ASSERT_TRUE(hub.push(local, "b", "org/b", "1").ok());

  Stats before = hub.stats();
  ASSERT_TRUE(hub.remove("org/a", "1").ok());
  Stats after = hub.stats();

  // a's manifest/config/unique layer went away; the shared layer survived.
  EXPECT_FALSE(hub.has("org/a", "1"));
  EXPECT_GT(after.reclaimed_bytes, 0u);
  EXPECT_GT(after.removed_blobs, 0u);
  EXPECT_LT(after.stored_bytes, before.stored_bytes);
  EXPECT_EQ(after.stored_bytes + after.reclaimed_bytes, before.stored_bytes);

  // b is untouched and still serves its shared base layer.
  oci::Layout out;
  ASSERT_TRUE(hub.pull("org/b", "1", out, "b").ok());
  auto rootfs = out.flatten(out.find_image("b").value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/data").value(), "only-b");

  // Removing the last reference empties the store entirely.
  ASSERT_TRUE(hub.remove("org/b", "1").ok());
  Stats empty = hub.stats();
  EXPECT_EQ(empty.repositories, 0u);
  EXPECT_EQ(empty.blobs, 0u);
  EXPECT_EQ(empty.stored_bytes, 0u);
  EXPECT_EQ(empty.reclaimed_bytes, before.stored_bytes);
}

TEST(RegistryStressTest, RemoveUnknownReferenceFails) {
  Registry hub;
  auto status = hub.remove("no/such", "tag");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::not_found);
}

TEST(RegistryStressTest, RemoveKeepsBlobsSharedAcrossTagsOfSameImage) {
  Registry hub;
  oci::Layout local;
  ASSERT_TRUE(local.create_image(config(), {tree("v")}, "work").ok());
  ASSERT_TRUE(hub.push(local, "work", "org/app", "1").ok());
  ASSERT_TRUE(hub.push(local, "work", "org/app", "latest").ok());

  ASSERT_TRUE(hub.remove("org/app", "1").ok());
  // "latest" references the exact same manifest: nothing may be collected.
  EXPECT_EQ(hub.stats().reclaimed_bytes, 0u);
  oci::Layout out;
  EXPECT_TRUE(hub.pull("org/app", "latest", out, "x").ok());
}

TEST(RegistryStressTest, InjectedFaultsSurfaceAsTransientErrors) {
  support::FaultInjector faults;
  Registry hub;
  hub.set_fault_injector(&faults);
  oci::Layout local;
  ASSERT_TRUE(local.create_image(config(), {tree("v")}, "work").ok());
  ASSERT_TRUE(hub.push(local, "work", "org/app", "1").ok());

  faults.fail_next(kPullFaultSite, 1);
  oci::Layout out;
  auto failed = hub.pull("org/app", "1", out, "x");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, Errc::failed);
  // The failed pull transferred nothing and the next one succeeds.
  EXPECT_EQ(hub.stats().pulled_bytes, 0u);
  EXPECT_TRUE(hub.pull("org/app", "1", out, "x").ok());

  faults.fail_next(kPushFaultSite, 1);
  EXPECT_FALSE(hub.push(local, "work", "org/app", "2").ok());
  EXPECT_FALSE(hub.has("org/app", "2"));
}

TEST(RegistryStressTest, ConcurrentRemoveAndPushStaysConsistent) {
  Registry hub;
  // Seed images "org/gc:0..15", then concurrently remove them while pushing
  // fresh ones — exercising remove's mark/sweep against racing mutations.
  {
    oci::Layout local;
    for (int i = 0; i < 16; ++i) {
      std::string tag = "seed" + std::to_string(i);
      ASSERT_TRUE(local.create_image(config(), {tree("gc" + std::to_string(i))}, tag).ok());
      ASSERT_TRUE(hub.push(local, tag, "org/gc", std::to_string(i)).ok());
    }
  }
  std::thread remover([&hub] {
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(hub.remove("org/gc", std::to_string(i)).ok());
  });
  std::thread pusher([&hub] {
    oci::Layout local;
    for (int i = 0; i < 16; ++i) {
      std::string tag = "new" + std::to_string(i);
      EXPECT_TRUE(local.create_image(config(), {tree("new" + std::to_string(i))}, tag).ok());
      EXPECT_TRUE(hub.push(local, tag, "org/new", std::to_string(i)).ok());
    }
  });
  remover.join();
  pusher.join();

  // All new images survived GC of the old ones.
  for (int i = 0; i < 16; ++i) {
    oci::Layout out;
    ASSERT_TRUE(hub.pull("org/new", std::to_string(i), out, "x").ok()) << i;
  }
  EXPECT_EQ(hub.stats().repositories, 16u);
}

TEST(RegistryStressTest, ConcurrentPullsAndFlattensWhileRemoveSweeps) {
  std::vector<vfs::Filesystem> layers;
  for (int i = 0; i < 4; ++i) {
    vfs::Filesystem layer;
    ASSERT_TRUE(layer.write_file("/generation", std::to_string(i)).ok());
    ASSERT_TRUE(layer.write_file("/data/file" + std::to_string(i), std::string(3000, 'a' + i)).ok());
    layers.push_back(std::move(layer));
  }
  oci::Layout local;
  ASSERT_TRUE(local.create_image(config(), layers, "app").ok());
  // What the image flattens to in a layout that never shared a buffer.
  oci::Layout never_shared;
  auto reference = never_shared.create_image(config(), layers, "app");
  ASSERT_TRUE(reference.ok());
  const auto expected = never_shared.flatten(reference.value());
  ASSERT_TRUE(expected.ok());
  // Every puller works on a private copy of one base layout, as service
  // tickets do with their system's Sysenv.
  oci::Layout base;
  auto base_image = base.create_image(config(), {tree("base")}, "base");
  ASSERT_TRUE(base_image.ok());
  ASSERT_TRUE(base.flatten(base_image.value()).ok());

  Registry hub;
  ASSERT_TRUE(hub.push(local, "app", "org/app", "1").ok());
  std::atomic<int> flattened{0};
  std::atomic<int> mismatches{0};
  auto pull_and_flatten = [&] {
    oci::Layout workspace = base;
    Status pulled = hub.pull("org/app", "1", workspace, "pulled");
    if (!pulled.ok()) {
      // Only the gap between a remove and its re-push may fail a pull.
      if (pulled.error().code != Errc::not_found) ++mismatches;
      return;
    }
    auto image = workspace.find_image("pulled");
    auto rootfs = image.ok() ? workspace.flatten(image.value()) : image.error();
    if (rootfs.ok() && rootfs.value() == expected.value()) {
      ++flattened;
    } else {
      ++mismatches;
    }
  };
  std::vector<std::thread> pullers;
  for (int t = 0; t < 4; ++t) {
    pullers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) pull_and_flatten();
    });
  }
  std::thread sweeper([&] {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(hub.remove("org/app", "1").ok());
      EXPECT_TRUE(hub.push(local, "app", "org/app", "1").ok());
    }
  });
  for (std::thread& puller : pullers) puller.join();
  sweeper.join();
  pull_and_flatten();  // the image is back: this one must succeed
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(flattened.load(), 0);
  EXPECT_TRUE(hub.fsck().clean());
}

TEST(RegistryStressTest, ConcurrentChunkCachePullsWhileRemoveSweeps) {
  std::vector<vfs::Filesystem> layers;
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::mt19937 rng(i);
    std::string bytes(12 * 1024, '\0');
    for (char& byte : bytes) byte = static_cast<char>(rng());
    vfs::Filesystem layer;
    ASSERT_TRUE(layer.write_file("/lib/part" + std::to_string(i), std::move(bytes)).ok());
    layers.push_back(std::move(layer));
  }
  oci::Layout local;
  auto image = local.create_image(config(), layers, "app");
  ASSERT_TRUE(image.ok());
  std::vector<oci::Descriptor> blobs = image.value().manifest.layers;
  blobs.push_back(image.value().manifest.config);
  oci::Layout base;
  ASSERT_TRUE(base.create_image(config(), {tree("base")}, "base").ok());

  Registry hub;
  hub.enable_chunk_dedup(
      std::make_shared<transfer::ChunkStore>(std::make_shared<store::MemStore>()));
  // Every push's and every pull's report, summed: what stats() must show.
  std::mutex tally_mutex;
  ImageDeltaReport pushed, pulled;
  auto tally = [&](ImageDeltaReport& sum, const ImageDeltaReport& report) {
    std::lock_guard<std::mutex> lock(tally_mutex);
    sum.bytes_moved += report.bytes_moved;
    sum.chunks_moved += report.chunks_moved;
    sum.chunks_reused += report.chunks_reused;
  };
  auto push = [&] {
    ImageDeltaReport report;
    Status status = hub.push(local, "app", "org/app", "1", {.report = &report});
    if (status.ok()) tally(pushed, report);
    return status;
  };
  ASSERT_TRUE(push().ok());

  std::atomic<int> intact{0};
  std::atomic<int> mismatches{0};
  auto puller = [&] {
    // Each puller keeps its own chunk cache across its pulls, as a node does.
    transfer::ChunkStore cache(std::make_shared<store::MemStore>());
    for (int i = 0; i < 30; ++i) {
      oci::Layout destination = base;
      ImageDeltaReport report;
      Status status = hub.pull("org/app", "1", destination, "pulled",
                               {.local_chunks = &cache, .report = &report});
      if (!status.ok()) {
        // Only the gap between a remove and its re-push may fail a pull,
        // and a failed pull adopts nothing.
        if (status.error().code != Errc::not_found ||
            destination.blob_count() != base.blob_count() ||
            destination.find_image("pulled").ok()) {
          ++mismatches;
        }
        continue;
      }
      tally(pulled, report);
      auto got = destination.find_image("pulled");
      bool same = got.ok() && got.value().manifest_digest == image.value().manifest_digest;
      for (const oci::Descriptor& blob : blobs) {
        auto bytes = destination.get_blob(blob.digest);
        same = same && bytes.ok() && bytes.value() == local.get_blob(blob.digest).value();
      }
      if (same) {
        ++intact;
      } else {
        ++mismatches;
      }
    }
  };
  std::vector<std::thread> pullers;
  for (int t = 0; t < 3; ++t) pullers.emplace_back(puller);
  std::thread sweeper([&] {
    for (int i = 0; i < 15; ++i) {
      EXPECT_TRUE(hub.remove("org/app", "1").ok());
      EXPECT_TRUE(push().ok());
    }
  });
  for (std::thread& thread : pullers) thread.join();
  sweeper.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(intact.load(), 0);
  EXPECT_GT(pulled.chunks_reused, 0u);  // the local caches paid off
  const Stats stats = hub.stats();
  EXPECT_EQ(stats.pushed_bytes, pushed.bytes_moved);
  EXPECT_EQ(stats.pulled_bytes, pulled.bytes_moved);
  EXPECT_EQ(stats.chunks_moved, pushed.chunks_moved + pulled.chunks_moved);
  EXPECT_EQ(stats.chunks_reused, pushed.chunks_reused + pulled.chunks_reused);
  EXPECT_TRUE(hub.fsck().clean());
}

}  // namespace
}  // namespace comt::registry
