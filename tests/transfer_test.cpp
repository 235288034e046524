#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "registry/registry.hpp"
#include "store/remote.hpp"
#include "store/store.hpp"
#include "support/fault.hpp"
#include "support/sha256.hpp"
#include "transfer/chunker.hpp"
#include "transfer/chunkstore.hpp"
#include "transfer/codec.hpp"
#include "transfer/delta.hpp"

namespace comt::transfer {
namespace {

/// Deterministic pseudo-random payload — repetitive enough to compress, varied
/// enough to produce many distinct chunks. Includes NUL and high bytes so the
/// wire path is exercised on binary data, not just text.
std::string payload(std::size_t size, std::uint32_t seed) {
  std::mt19937 rng(seed);
  static constexpr std::string_view kWords[] = {
      "usr/lib/", "libm.so", "openmpi", "x86-64-v3", "\x7f""ELF",
      "config ",  "0000644 ", "mca_btl"};
  std::string out;
  out.reserve(size + 16);
  while (out.size() < size) {
    const std::uint32_t pick = rng();
    if (pick % 16 == 0) {
      out.append(4, '\0');
      out.push_back(static_cast<char>(pick >> 24));
    } else {
      out.append(kWords[pick % std::size(kWords)]);
    }
  }
  out.resize(size);
  return out;
}

std::set<std::string> chunk_digests(const ChunkManifest& manifest) {
  std::set<std::string> out;
  for (const ChunkRef& chunk : manifest.chunks) out.insert(chunk.digest);
  return out;
}

// ---------------------------------------------------------------------------
// Chunker.

TEST(TransferChunkerTest, BoundariesAreDeterministicAndCoverTheBlob) {
  const std::string blob = payload(96 * 1024, 7);
  ChunkerParams params;
  auto a = chunk_boundaries(blob, params);
  auto b = chunk_boundaries(blob, params);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  std::uint64_t pos = 0;
  for (const auto& [offset, size] : a) {
    EXPECT_EQ(offset, pos);
    EXPECT_GT(size, 0u);
    EXPECT_LE(size, params.max_bytes);
    pos += size;
  }
  EXPECT_EQ(pos, blob.size());
  // Every chunk except the tail respects the minimum.
  for (std::size_t i = 0; i + 1 < a.size(); ++i) EXPECT_GE(a[i].second, params.min_bytes);
}

TEST(TransferChunkerTest, ManifestRoundTripsAndDetectsDamage) {
  const std::string blob = payload(32 * 1024, 3);
  auto manifest = build_manifest(blob, ChunkerParams{});
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().blob_digest, "sha256:" + Sha256::hex_digest(blob));
  EXPECT_EQ(manifest.value().total_size, blob.size());

  std::string bytes = manifest.value().serialize();
  auto parsed = ChunkManifest::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), manifest.value());

  // A flipped byte and a truncation are both corrupt, never misparsed.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x20;
  EXPECT_EQ(ChunkManifest::parse(flipped).error().code, Errc::corrupt);
  EXPECT_EQ(ChunkManifest::parse(std::string_view(bytes).substr(0, bytes.size() - 3))
                .error()
                .code,
            Errc::corrupt);
}

TEST(TransferChunkerTest, OneByteInsertDirtiesOhOneChunks) {
  const std::string blob = payload(128 * 1024, 11);
  ChunkerParams params;
  auto before = build_manifest(blob, params);
  ASSERT_TRUE(before.ok());

  // Insert one byte a third of the way in: the boundary-shift resistance
  // property says every chunk past the edit's neighbourhood re-synchronizes.
  std::string edited = blob;
  edited.insert(blob.size() / 3, 1, '!');
  auto after = build_manifest(edited, params);
  ASSERT_TRUE(after.ok());

  std::set<std::string> old_digests = chunk_digests(before.value());
  std::size_t changed = 0;
  for (const ChunkRef& chunk : after.value().chunks) {
    if (old_digests.count(chunk.digest) == 0) ++changed;
  }
  // O(1): the chunk the byte landed in, plus at most a couple of neighbours —
  // independent of how many chunks the blob has.
  EXPECT_GE(after.value().chunks.size(), 10u);
  EXPECT_LE(changed, 4u);
}

TEST(TransferChunkerTest, RejectsInvalidParams) {
  ChunkerParams bad;
  bad.avg_bytes = 3000;  // not a power of two
  EXPECT_EQ(bad.validate().error().code, Errc::invalid_argument);
  bad = ChunkerParams{};
  bad.min_bytes = bad.avg_bytes + 1;
  EXPECT_EQ(bad.validate().error().code, Errc::invalid_argument);
  EXPECT_FALSE(build_manifest("x", bad).ok());
}

TEST(TransferChunkerTest, EmptyBlobHasNoChunks) {
  auto manifest = build_manifest("", ChunkerParams{});
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest.value().chunks.empty());
  EXPECT_EQ(manifest.value().total_size, 0u);
}

// ---------------------------------------------------------------------------
// Codec.

TEST(TransferCodecTest, LzRoundTripsAndShrinksRepetitiveData) {
  const std::string raw = payload(16 * 1024, 23);
  std::string framed = frame_chunk(raw);
  EXPECT_EQ(static_cast<CodecId>(framed[0]), CodecId::lz);
  EXPECT_LT(framed.size(), raw.size());
  auto back = unframe_chunk("r", framed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(TransferCodecTest, FrameVerifiesChecksumAndRejectsDamage) {
  const std::string raw = payload(4096, 5);
  std::string framed = frame_chunk(raw);
  auto back = unframe_chunk("t", framed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);

  std::string torn = framed.substr(0, framed.size() / 2);
  EXPECT_EQ(unframe_chunk("t", torn).error().code, Errc::corrupt);

  std::string flipped = framed;
  flipped[framed.size() - 1] ^= 0x01;
  EXPECT_EQ(unframe_chunk("t", flipped).error().code, Errc::corrupt);

  std::string unknown = framed;
  unknown[0] = 0x7E;  // codec id from the future
  EXPECT_EQ(unframe_chunk("t", unknown).error().code, Errc::unsupported);
}

TEST(TransferCodecTest, IncompressibleDataFallsBackToIdentity) {
  std::mt19937_64 rng(99);
  std::string raw(2048, '\0');
  for (char& c : raw) c = static_cast<char>(rng());
  std::string framed = frame_chunk(raw);
  EXPECT_EQ(static_cast<CodecId>(framed[0]), CodecId::identity);
  EXPECT_EQ(unframe_chunk("r", framed).value(), raw);
}

// ---------------------------------------------------------------------------
// ChunkStore.

TEST(TransferChunkStoreTest, PutGetRoundTripAndIdempotence) {
  ChunkStore store(std::make_shared<store::MemStore>());
  const std::string blob = payload(64 * 1024, 31);
  auto manifest = store.put_blob(blob);
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(store.contains_blob(manifest.value().blob_digest));
  EXPECT_EQ(store.get_blob(manifest.value().blob_digest).value(), blob);

  // Re-putting the same blob dedups everything and references nothing twice.
  const std::uint64_t stored = store.stored_chunk_bytes();
  const std::uint64_t misses = store.chunks_miss();
  ASSERT_TRUE(store.put_blob(blob).ok());
  EXPECT_EQ(store.stored_chunk_bytes(), stored);
  EXPECT_EQ(store.chunks_miss(), misses);
  EXPECT_GT(store.chunks_hit(), 0u);
}

TEST(TransferChunkStoreTest, SharedContentSharesChunks) {
  ChunkStore store(std::make_shared<store::MemStore>());
  const std::string base = payload(96 * 1024, 41);
  std::string child = base;
  child.replace(child.size() / 2, 64, std::string(64, '@'));  // one small edit

  ASSERT_TRUE(store.put_blob(base).ok());
  const std::uint64_t stored_after_base = store.stored_chunk_bytes();
  ASSERT_TRUE(store.put_blob(child).ok());
  const std::uint64_t child_cost = store.stored_chunk_bytes() - stored_after_base;
  // The child stores only the chunks around the edit, a small fraction of it.
  EXPECT_LT(child_cost, base.size() / 4);
  EXPECT_GT(store.dedup_ratio(), 1.5);
}

TEST(TransferChunkStoreTest, GcRefcountsAcrossSharedChunksAndPins) {
  ChunkStore store(std::make_shared<store::MemStore>());
  const std::string base = payload(64 * 1024, 51);
  std::string child = base;
  child.replace(0, 32, std::string(32, '#'));

  auto base_manifest = store.put_blob(base);
  auto child_manifest = store.put_blob(child);
  ASSERT_TRUE(base_manifest.ok());
  ASSERT_TRUE(child_manifest.ok());

  // Erasing the base keeps every chunk the child still references.
  auto freed = store.erase_blob(base_manifest.value().blob_digest);
  ASSERT_TRUE(freed.ok());
  EXPECT_FALSE(store.contains_blob(base_manifest.value().blob_digest));
  EXPECT_EQ(store.get_blob(child_manifest.value().blob_digest).value(), child);

  // A pinned blob survives erase entirely (journaled rebuilds hold pins).
  store.pin_blob(child_manifest.value().blob_digest);
  EXPECT_EQ(store.erase_blob(child_manifest.value().blob_digest).value(), 0u);
  EXPECT_TRUE(store.contains_blob(child_manifest.value().blob_digest));
  store.unpin_blob(child_manifest.value().blob_digest);
  EXPECT_GT(store.erase_blob(child_manifest.value().blob_digest).value(), 0u);
  EXPECT_EQ(store.chunk_count(), 0u);
  EXPECT_EQ(store.stored_chunk_bytes(), 0u);
}

TEST(TransferChunkStoreTest, ReopenedStoreHydratesRefcountsFromManifests) {
  auto backend = std::make_shared<store::MemStore>();
  std::string base_digest, child_digest;
  const std::string base = payload(48 * 1024, 61);
  std::string child = base;
  child.append("extra tail data");
  {
    ChunkStore store(backend);
    base_digest = store.put_blob(base).value().blob_digest;
    child_digest = store.put_blob(child).value().blob_digest;
  }
  // A fresh store over the same backend must GC exactly like the original.
  ChunkStore reopened(backend);
  EXPECT_EQ(reopened.blob_count(), 2u);
  ASSERT_TRUE(reopened.erase_blob(base_digest).ok());
  EXPECT_EQ(reopened.get_blob(child_digest).value(), child);
}

TEST(TransferChunkStoreTest, CorruptStoredChunkIsDetectedOnReassembly) {
  auto backend = std::make_shared<store::MemStore>();
  ChunkStore store(backend);
  const std::string blob = payload(32 * 1024, 71);
  auto manifest = store.put_blob(blob);
  ASSERT_TRUE(manifest.ok());

  // Flip one byte inside some stored chunk, behind the store's back.
  auto entries = backend->list("transfer/chunk/");
  ASSERT_FALSE(entries.empty());
  const std::string victim = entries[entries.size() / 2].key;
  std::string bytes = backend->get(victim).value();
  bytes[bytes.size() / 2] ^= 0x08;
  ASSERT_TRUE(backend->put(victim, std::move(bytes)).ok());

  auto result = store.get_blob(manifest.value().blob_digest);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::corrupt);
}

// ---------------------------------------------------------------------------
// Delta push/pull.

TEST(TransferDeltaTest, DeltaPushMovesOnlyTheDifference) {
  ChunkStore destination(std::make_shared<store::MemStore>());
  const std::string base = payload(128 * 1024, 81);
  std::string child = base;
  child.replace(child.size() / 3, 128, std::string(128, '%'));

  auto base_report = push_delta(base, {}, destination);
  ASSERT_TRUE(base_report.ok());
  EXPECT_TRUE(base_report.value().full_push);
  EXPECT_EQ(base_report.value().chunks_reused, 0u);

  auto child_report = push_delta(child, {base_report.value().blob_digest}, destination);
  ASSERT_TRUE(child_report.ok());
  EXPECT_FALSE(child_report.value().full_push);
  EXPECT_GT(child_report.value().chunks_reused, child_report.value().chunks_moved);
  EXPECT_LT(child_report.value().moved_fraction(), 0.4);
  EXPECT_EQ(destination.get_blob(child_report.value().blob_digest).value(), child);
}

TEST(TransferDeltaTest, MissingBaseFallsBackToFullPush) {
  ChunkStore destination(std::make_shared<store::MemStore>());
  const std::string blob = payload(64 * 1024, 91);
  auto report = push_delta(blob, {"sha256:" + Sha256::hex_digest("never pushed")},
                           destination);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().full_push);
  EXPECT_EQ(report.value().chunks_reused, 0u);
  EXPECT_EQ(destination.get_blob(report.value().blob_digest).value(), blob);
}

TEST(TransferDeltaTest, PartiallyGcdBaseStillYieldsCorrectBlob) {
  ChunkStore destination(std::make_shared<store::MemStore>());
  const std::string base = payload(96 * 1024, 101);
  auto base_report = push_delta(base, {}, destination);
  ASSERT_TRUE(base_report.ok());
  // GC the base: its chunks vanish, but the manifest probe is only advisory.
  ASSERT_TRUE(destination.erase_blob(base_report.value().blob_digest).ok());

  std::string child = base;
  child.append("new layer content");
  auto report = push_delta(child, {base_report.value().blob_digest}, destination);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().full_push);  // the base is gone
  EXPECT_EQ(destination.get_blob(report.value().blob_digest).value(), child);
}

TEST(TransferDeltaTest, PullReusesLocalChunksAndVerifies) {
  ChunkStore source(std::make_shared<store::MemStore>());
  ChunkStore local(std::make_shared<store::MemStore>());
  const std::string base = payload(96 * 1024, 111);
  std::string child = base;
  child.replace(child.size() / 2, 64, std::string(64, '&'));

  // The puller already has the base (pulled earlier); the child comes over
  // the wire as a delta.
  ASSERT_TRUE(push_delta(base, {}, source).ok());
  ASSERT_TRUE(push_delta(base, {}, local).ok());
  auto child_report = push_delta(child, {}, source);
  ASSERT_TRUE(child_report.ok());

  std::string pulled;
  auto report = pull_delta(source, child_report.value().blob_digest, local, &pulled);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(pulled, child);
  EXPECT_GT(report.value().chunks_reused, report.value().chunks_moved);
  EXPECT_LT(report.value().moved_fraction(), 0.4);
  // The pull materialized the blob locally: a second pull moves nothing.
  auto again = pull_delta(source, child_report.value().blob_digest, local);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().chunks_moved, 0u);
}

TEST(TransferDeltaTest, PushedStoreBytesArePinned) {
  // One compressible and one incompressible blob, so the store holds frames
  // of both ids (LZ and the identity fallback). The digest covers every key
  // and value the pushes left, so a change to the frame, the manifest or the
  // chunker shows here; the store holds chunks and manifests and nothing else.
  auto backend = std::make_shared<store::MemStore>();
  ChunkStore destination(backend);
  std::mt19937_64 rng(17);
  std::string noise(24 * 1024, '\0');
  for (char& c : noise) c = static_cast<char>(rng());
  ASSERT_TRUE(push_delta(payload(48 * 1024, 7), {}, destination).ok());
  ASSERT_TRUE(push_delta(noise, {}, destination).ok());

  std::string pairs;
  std::set<CodecId> frame_ids;
  for (const store::KvEntry& entry : backend->list()) {
    const bool chunk = entry.key.rfind("transfer/chunk/", 0) == 0;
    ASSERT_TRUE(chunk || entry.key.rfind("transfer/manifest/", 0) == 0)
        << "unexpected key " << entry.key;
    auto value = backend->get(entry.key);
    ASSERT_TRUE(value.ok());
    if (chunk) frame_ids.insert(static_cast<CodecId>(value.value()[0]));
    pairs += entry.key + '\0' + std::to_string(value.value().size()) + '\0' + value.value();
  }
  EXPECT_EQ(frame_ids, (std::set<CodecId>{CodecId::identity, CodecId::lz}));
  EXPECT_EQ(Sha256::hex_digest(pairs),
            "3dd6bf9640ee00fcc943495a6ca98b838e1db399a8e300a6e9c1296e60d44903");
}

// ---------------------------------------------------------------------------
// Over a RemoteStore: torn transfers and wire accounting.

TEST(TransferRemoteTest, TornChunkUploadIsDetectedAndRepushHeals) {
  auto inner = std::make_shared<store::MemStore>();
  auto remote = std::make_shared<store::RemoteStore>(inner);
  support::FaultInjector faults;
  remote->set_fault_injector(&faults);
  ChunkStore destination(remote);

  const std::string blob = payload(64 * 1024, 131);
  auto manifest = build_manifest(blob, destination.params());
  ASSERT_TRUE(manifest.ok());

  // Tear an upload mid-blob: the client dies, the endpoint keeps a prefix.
  faults.tear_next(std::string(store::kRemotePutSite), 0.5);
  EXPECT_THROW((void)push_delta(blob, {}, destination), support::CrashInjected);

  // The torn chunk reads back corrupt — never as a silently wrong chunk.
  bool saw_corrupt = false;
  for (const ChunkRef& chunk : manifest.value().chunks) {
    if (!destination.contains_chunk(chunk.digest)) continue;
    auto raw = destination.get_chunk(chunk.digest);
    if (!raw.ok()) {
      EXPECT_EQ(raw.error().code, Errc::corrupt);
      saw_corrupt = true;
    }
  }
  EXPECT_TRUE(saw_corrupt);

  // Re-push completes the transfer; any chunk the dedup probe kept trusting
  // but that reads back corrupt is healed with repair_chunk — the explicit
  // overwrite path a fsck pass drives.
  auto report = push_delta(blob, {}, destination);
  ASSERT_TRUE(report.ok());
  for (const ChunkRef& chunk : manifest.value().chunks) {
    if (destination.get_chunk(chunk.digest).ok()) continue;
    ASSERT_TRUE(destination
                    .repair_chunk(chunk.digest,
                                  std::string_view(blob).substr(chunk.offset, chunk.size))
                    .ok());
  }
  auto back = destination.get_blob(report.value().blob_digest);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), blob);
}

TEST(TransferRemoteTest, WireBytesCountAttemptsLogicalBytesCountOnce) {
  auto remote = std::make_shared<store::RemoteStore>(std::make_shared<store::MemStore>());
  support::FaultInjector faults;
  remote->set_fault_injector(&faults);
  obs::MetricsRegistry metrics;
  remote->set_observer(nullptr, &metrics);

  const std::string value = "0123456789";  // 10 logical, 22 framed
  const std::uint64_t frame = value.size() + 12;

  // Two failed attempts + one success: the wire carried the frame 3 times.
  faults.fail_next("remote.put", 2);
  ASSERT_TRUE(remote->put("k", value).ok());
  EXPECT_EQ(remote->wire_put_bytes(), 3 * frame);
  EXPECT_EQ(remote->logical_put_bytes(), value.size());
  EXPECT_EQ(metrics.counter_value("store.put_bytes"), 3 * frame);
  EXPECT_EQ(metrics.counter_value("store.remote.logical_put_bytes"), value.size());

  // Same for downloads.
  faults.fail_next("remote.get", 1);
  ASSERT_TRUE(remote->get("k").ok());
  EXPECT_EQ(remote->wire_get_bytes(), 2 * frame);
  EXPECT_EQ(remote->logical_get_bytes(), value.size());
  EXPECT_EQ(metrics.counter_value("store.get_bytes"), 2 * frame);
  EXPECT_EQ(metrics.counter_value("store.remote.logical_get_bytes"), value.size());

  // Retry exhaustion still counts the traffic the failed attempts burned.
  faults.fail_next("remote.put", 100);
  ASSERT_FALSE(remote->put("k2", value).ok());
  EXPECT_EQ(remote->wire_put_bytes(), 3 * frame + 3 * frame);  // 3 = max_attempts
  EXPECT_EQ(remote->logical_put_bytes(), value.size());        // unchanged
}

// ---------------------------------------------------------------------------
// Registry integration.

oci::ImageConfig image_config() {
  oci::ImageConfig c;
  c.config.entrypoint = {"/app"};
  return c;
}

vfs::Filesystem tree(std::string_view path, std::string content) {
  vfs::Filesystem fs;
  EXPECT_TRUE(fs.write_file(std::string(path), std::move(content)).ok());
  return fs;
}

TEST(TransferRegistryTest, DeltaPushOfChildImageMovesFractionOfBytes) {
  registry::Registry hub;
  hub.enable_chunk_dedup(std::make_shared<ChunkStore>(std::make_shared<store::MemStore>()));

  // Generic parent and optimized child: the child's layer shares most of its
  // content with the parent's (one region recompiled).
  const std::string base_layer = payload(128 * 1024, 141);
  std::string child_layer = base_layer;
  child_layer.replace(child_layer.size() / 4, 256, std::string(256, '^'));

  oci::Layout local;
  ASSERT_TRUE(local.create_image(image_config(), {tree("/lib/app.so", base_layer)},
                                 "app:generic")
                  .ok());
  ASSERT_TRUE(local.create_image(image_config(), {tree("/lib/app.so", child_layer)},
                                 "app:optimized")
                  .ok());

  ASSERT_TRUE(hub.push(local, "app:generic", "org/app", "generic").ok());
  registry::ImageDeltaReport report;
  ASSERT_TRUE(hub.push(local, "app:optimized", "org/app", "optimized",
                       {.bases = {"org/app:generic"}, .report = &report})
                  .ok());
  EXPECT_FALSE(report.full_push);
  EXPECT_GT(report.chunks_reused, 0u);
  EXPECT_LT(report.moved_fraction(), 0.4);

  // The pulled child is bit-identical.
  oci::Layout remote;
  ASSERT_TRUE(hub.pull("org/app", "optimized", remote, "pulled").ok());
  auto image = remote.find_image("pulled");
  ASSERT_TRUE(image.ok());
  auto rootfs = remote.flatten(image.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/lib/app.so").value(), child_layer);

  registry::Stats stats = hub.stats();
  EXPECT_GT(stats.chunk_bytes_deduped, 0u);
  EXPECT_GT(stats.chunks_reused, 0u);
}

TEST(TransferRegistryTest, DeltaPullReusesLocalChunkCache) {
  registry::Registry hub;
  hub.enable_chunk_dedup(std::make_shared<ChunkStore>(std::make_shared<store::MemStore>()));

  const std::string base_layer = payload(96 * 1024, 151);
  std::string child_layer = base_layer;
  child_layer.replace(0, 128, std::string(128, '~'));

  oci::Layout local;
  ASSERT_TRUE(
      local.create_image(image_config(), {tree("/a", base_layer)}, "app:base").ok());
  ASSERT_TRUE(
      local.create_image(image_config(), {tree("/a", child_layer)}, "app:child").ok());
  ASSERT_TRUE(hub.push(local, "app:base", "org/app", "base").ok());
  ASSERT_TRUE(hub.push(local, "app:child", "org/app", "child").ok());

  // Pull the base first: the local chunk cache hydrates. The child pull then
  // moves only the delta.
  obs::Tracer tracer;
  hub.set_observer(&tracer, nullptr);
  ChunkStore cache(std::make_shared<store::MemStore>());
  oci::Layout node_a;
  registry::ImageDeltaReport base_report;
  ASSERT_TRUE(hub.pull("org/app", "base", node_a, "base",
                       {.local_chunks = &cache, .report = &base_report})
                  .ok());
  oci::Layout node_b;
  registry::ImageDeltaReport child_report;
  ASSERT_TRUE(hub.pull("org/app", "child", node_b, "child",
                       {.local_chunks = &cache, .report = &child_report})
                  .ok());
  EXPECT_GT(child_report.chunks_reused, 0u);
  EXPECT_LT(child_report.bytes_moved, base_report.bytes_moved);

  // Each blob reassembled through the cache opens its transfer.pull span
  // under the registry's pull span.
  std::map<obs::SpanId, std::string> names;
  for (const obs::SpanRecord& span : tracer.snapshot()) names[span.id] = span.name;
  int transfer_pulls = 0;
  for (const obs::SpanRecord& span : tracer.snapshot()) {
    if (span.name != "transfer.pull") continue;
    EXPECT_EQ(names[span.parent], "registry.pull");
    ++transfer_pulls;
  }
  EXPECT_GT(transfer_pulls, 0);

  auto image = node_b.find_image("child");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(node_b.flatten(image.value()).value().read_file("/a").value(), child_layer);
}

TEST(TransferRegistryTest, DeltaApiRequiresEnabledChunkDedup) {
  registry::Registry hub;
  oci::Layout local;
  ASSERT_TRUE(local.create_image(image_config(), {tree("/x", "data")}, "x:1").ok());
  EXPECT_EQ(hub.push(local, "x:1", "org/x", "1", {.bases = {"org/x:0"}}).error().code,
            Errc::unsupported);
  EXPECT_FALSE(hub.has("org/x", "1"));
  ASSERT_TRUE(hub.push(local, "x:1", "org/x", "1").ok());
  ChunkStore cache(std::make_shared<store::MemStore>());
  EXPECT_EQ(hub.pull("org/x", "1", local, "y", {.local_chunks = &cache}).error().code,
            Errc::unsupported);
  EXPECT_FALSE(local.find_image("y").ok());
}

TEST(TransferRegistryTest, GcSweepsChunksWithBlobsButRespectsPins) {
  registry::Registry hub;
  auto chunks = std::make_shared<ChunkStore>(std::make_shared<store::MemStore>());
  hub.enable_chunk_dedup(chunks);

  oci::Layout local;
  ASSERT_TRUE(local.create_image(image_config(), {tree("/a", payload(64 * 1024, 161))},
                                 "app:v1")
                  .ok());
  ASSERT_TRUE(hub.push(local, "app:v1", "org/app", "1").ok());
  EXPECT_GT(chunks->chunk_count(), 0u);

  // Pinned (a journaled rebuild still names it): remove keeps blobs and
  // chunks alike.
  ASSERT_TRUE(hub.pin("org/app", "1").ok());
  ASSERT_TRUE(hub.remove("org/app", "1").ok());
  EXPECT_GT(chunks->chunk_count(), 0u);
  EXPECT_EQ(hub.stats().removed_blobs, 0u);

  // Re-push restores the reference; the rebuild finished, so the pin lifts
  // and the next remove sweeps layout blobs and chunks together.
  ASSERT_TRUE(hub.push(local, "app:v1", "org/app", "1").ok());
  ASSERT_TRUE(hub.unpin("org/app", "1").ok());
  ASSERT_TRUE(hub.remove("org/app", "1").ok());
  EXPECT_EQ(chunks->chunk_count(), 0u);
  EXPECT_EQ(chunks->blob_count(), 0u);
  EXPECT_GT(hub.stats().reclaimed_bytes, 0u);
}

}  // namespace
}  // namespace comt::transfer
