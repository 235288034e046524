#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "oci/oci.hpp"
#include "tar/tar.hpp"

namespace comt::oci {
namespace {

vfs::Filesystem layer_tree(std::string_view marker) {
  vfs::Filesystem fs;
  EXPECT_TRUE(fs.write_file("/marker", std::string(marker)).ok());
  EXPECT_TRUE(fs.write_file("/shared", "same in every layer").ok());
  return fs;
}

ImageConfig sample_config() {
  ImageConfig config;
  config.architecture = "amd64";
  config.config.env = {"PATH=/usr/bin", "LANG=C"};
  config.config.entrypoint = {"/app/run"};
  config.config.cmd = {"--default"};
  config.config.working_dir = "/app";
  config.config.labels["vendor"] = "comtainer";
  return config;
}

TEST(DigestTest, MatchesSha256) {
  Digest digest = Digest::of_blob("abc");
  EXPECT_EQ(digest.value,
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(DescriptorTest, JsonRoundTrip) {
  Descriptor descriptor;
  descriptor.media_type = std::string(kMediaTypeLayer);
  descriptor.digest = Digest::of_blob("x");
  descriptor.size = 1;
  descriptor.annotations["note"] = "hello";
  auto back = Descriptor::from_json(descriptor.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().media_type, descriptor.media_type);
  EXPECT_EQ(back.value().digest, descriptor.digest);
  EXPECT_EQ(back.value().size, 1u);
  EXPECT_EQ(back.value().annotations.at("note"), "hello");
}

TEST(DescriptorTest, MissingDigestRejected) {
  json::Object object;
  object.emplace_back("mediaType", json::Value("x"));
  EXPECT_FALSE(Descriptor::from_json(json::Value(std::move(object))).ok());
}

TEST(ImageConfigTest, JsonRoundTrip) {
  ImageConfig config = sample_config();
  config.diff_ids = {Digest::of_blob("l1"), Digest::of_blob("l2")};
  config.history = {"step one", "step two"};
  auto back = ImageConfig::from_json(config.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().architecture, "amd64");
  EXPECT_EQ(back.value().config.env, config.config.env);
  EXPECT_EQ(back.value().config.entrypoint, config.config.entrypoint);
  EXPECT_EQ(back.value().config.labels.at("vendor"), "comtainer");
  EXPECT_EQ(back.value().diff_ids, config.diff_ids);
  EXPECT_EQ(back.value().history, config.history);
}

TEST(LayoutTest, BlobStoreIsContentAddressed) {
  Layout layout;
  Descriptor a = layout.put_blob("hello", "text/plain");
  Descriptor b = layout.put_blob("hello", "text/plain");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(layout.blob_count(), 1u);
  EXPECT_EQ(layout.get_blob(a.digest).value(), "hello");
  EXPECT_FALSE(layout.get_blob(Digest{"sha256:0000"}).ok());
}

TEST(LayoutTest, CreateAndFindImage) {
  Layout layout;
  auto image = layout.create_image(sample_config(), {layer_tree("one")}, "app:v1");
  ASSERT_TRUE(image.ok());
  auto found = layout.find_image("app:v1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().manifest_digest, image.value().manifest_digest);
  EXPECT_EQ(found.value().config.config.entrypoint,
            std::vector<std::string>{"/app/run"});
  EXPECT_FALSE(layout.find_image("missing:tag").ok());
}

TEST(LayoutTest, FlattenAppliesLayersInOrder) {
  Layout layout;
  vfs::Filesystem lower = layer_tree("lower");
  vfs::Filesystem upper;
  ASSERT_TRUE(upper.write_file("/marker", "upper").ok());
  ASSERT_TRUE(upper.write_file("/.wh.shared", "").ok());
  auto image = layout.create_image(sample_config(), {lower, upper}, "stacked");
  ASSERT_TRUE(image.ok());
  auto rootfs = layout.flatten(image.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/marker").value(), "upper");
  EXPECT_FALSE(rootfs.value().exists("/shared"));
}

TEST(LayoutTest, AppendLayerDerivesNewImage) {
  Layout layout;
  auto base = layout.create_image(sample_config(), {layer_tree("base")}, "app:v1");
  ASSERT_TRUE(base.ok());
  vfs::Filesystem extra;
  ASSERT_TRUE(extra.write_file("/.coMtainer/cache/x", "cache data").ok());
  auto extended = layout.append_layer(base.value(), extra, "coMtainer-build", "app:v1+coM");
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended.value().manifest.layers.size(), 2u);
  EXPECT_EQ(extended.value().config.history.back(), "coMtainer-build");
  // The original image is untouched (the paper's layering argument).
  auto original = layout.find_image("app:v1");
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original.value().manifest.layers.size(), 1u);
  auto rootfs = layout.flatten(extended.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/.coMtainer/cache/x").value(), "cache data");
  EXPECT_EQ(rootfs.value().read_file("/marker").value(), "base");
}

TEST(LayoutTest, RetaggingReplacesIndexEntry) {
  Layout layout;
  auto v1 = layout.create_image(sample_config(), {layer_tree("one")}, "app:latest");
  ASSERT_TRUE(v1.ok());
  auto v2 = layout.create_image(sample_config(), {layer_tree("two")}, "app:latest");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(layout.tags(), std::vector<std::string>{"app:latest"});
  auto found = layout.find_image("app:latest");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().manifest_digest, v2.value().manifest_digest);
}

TEST(LayoutTest, ManifestRequiresBlobsPresent) {
  Layout layout;
  Manifest manifest;
  manifest.config.media_type = std::string(kMediaTypeConfig);
  manifest.config.digest = Digest::of_blob("not stored");
  auto result = layout.add_manifest(manifest, "broken");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::not_found);
}

TEST(LayoutTest, IndexJsonCarriesRefNames) {
  Layout layout;
  ASSERT_TRUE(layout.create_image(sample_config(), {layer_tree("a")}, "a:1").ok());
  ASSERT_TRUE(layout.create_image(sample_config(), {layer_tree("b")}, "b:2").ok());
  json::Value index = layout.index_json();
  const json::Value* manifests = index.find("manifests");
  ASSERT_NE(manifests, nullptr);
  ASSERT_EQ(manifests->as_array().size(), 2u);
  EXPECT_EQ(manifests->as_array()[0]
                .find("annotations")
                ->get_string(std::string(kRefNameAnnotation)),
            "a:1");
}

TEST(LayoutTest, FsckDetectsHealthyStore) {
  Layout layout;
  ASSERT_TRUE(layout.create_image(sample_config(), {layer_tree("x")}, "x:1").ok());
  EXPECT_TRUE(layout.fsck().ok());
}

TEST(LayoutTest, ManifestJsonRoundTrip) {
  Layout layout;
  auto image = layout.create_image(sample_config(), {layer_tree("m")}, "m:1");
  ASSERT_TRUE(image.ok());
  auto back = Manifest::from_json(image.value().manifest.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().config.digest, image.value().manifest.config.digest);
  ASSERT_EQ(back.value().layers.size(), 1u);
  EXPECT_EQ(back.value().layers[0].digest, image.value().manifest.layers[0].digest);
}

// -- kept layer trees: copies share them, writes drop them -------------------

/// The parity reference: the fold of apply_layer over tar::unpack of the
/// bytes `layout` stores for each layer right now.
Result<vfs::Filesystem> fold_of_stored_bytes(const Layout& layout, const Image& image) {
  vfs::Filesystem root;
  for (const Descriptor& layer : image.manifest.layers) {
    COMT_TRY(std::string bytes, layout.get_blob(layer.digest));
    COMT_TRY(vfs::Filesystem tree, tar::unpack(bytes));
    COMT_TRY_STATUS(vfs::apply_layer(root, tree));
  }
  return root;
}

/// Same tree, or the same error code.
void expect_same(const Result<vfs::Filesystem>& actual, const Result<vfs::Filesystem>& expected,
                 const std::string& step) {
  ASSERT_EQ(actual.ok(), expected.ok()) << step;
  if (expected.ok()) {
    EXPECT_TRUE(actual.value() == expected.value()) << step;
  } else {
    EXPECT_EQ(actual.error().code, expected.error().code) << step;
  }
}

/// Two layers; the upper one carries a file whose bytes are easy to find in
/// its tarball.
Result<Image> two_layer_image(Layout& layout) {
  vfs::Filesystem upper;
  EXPECT_TRUE(upper.write_file("/marker", "upper-marker-payload").ok());
  EXPECT_TRUE(upper.make_symlink("/link", "marker").ok());
  return layout.create_image(sample_config(), {layer_tree("lower"), upper}, "two");
}

TEST(LayoutTest, FlattenMatchesANeverFlattenedLayoutThroughDamageHealAndRemove) {
  Layout layout;
  auto image = two_layer_image(layout);
  ASSERT_TRUE(image.ok());
  const Digest upper = image.value().manifest.layers.back().digest;
  const std::string pristine = layout.get_blob(upper).value();
  auto original = layout.flatten(image.value());  // keeps both trees
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(original.value().read_file("/marker").value(), "upper-marker-payload");
  const Layout before = layout;  // shares the kept trees

  // A layout that never flattened, holding `layout`'s current bytes.
  auto never_flattened = [&]() {
    Layout fresh;
    auto rebuilt = two_layer_image(fresh);
    EXPECT_TRUE(rebuilt.ok());
    EXPECT_EQ(rebuilt.value().manifest_digest, image.value().manifest_digest);
    auto bytes = layout.get_blob(upper);
    if (bytes.ok()) {
      fresh.set_blob_bytes(upper, bytes.value());
    } else {
      fresh.remove_blob(upper);
    }
    return fresh.flatten(image.value());
  };
  auto check = [&](const std::string& step) {
    auto flattened = layout.flatten(image.value());
    expect_same(flattened, never_flattened(), step);
    expect_same(flattened, fold_of_stored_bytes(layout, image.value()), step);
    // The copy taken before the damage keeps its own bytes and view.
    EXPECT_EQ(before.get_blob(upper).value(), pristine) << step;
    expect_same(before.flatten(image.value()), original, step);
  };

  // Damage that still unpacks: a flipped payload byte reads as the damaged
  // content, not as the kept tree.
  std::string flipped = pristine;
  const std::size_t payload = flipped.find("upper-marker-payload");
  ASSERT_NE(payload, std::string::npos);
  flipped[payload] = 'U';
  layout.set_blob_bytes(upper, flipped);
  check("flipped payload");
  auto damaged = layout.flatten(image.value());
  ASSERT_TRUE(damaged.ok());
  EXPECT_EQ(damaged.value().read_file("/marker").value(), "Upper-marker-payload");

  // Heal: re-putting the true content drops the tree kept from the damage.
  layout.put_blob(pristine, kMediaTypeLayer);
  check("healed from flipped");
  expect_same(layout.flatten(image.value()), original, "healed vs original");

  // Damage that does not unpack, then heal again.
  layout.set_blob_bytes(upper, pristine.substr(0, 512));
  check("truncated");
  auto truncated = layout.flatten(image.value());
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, Errc::corrupt);
  layout.put_blob(pristine, kMediaTypeLayer);
  check("healed from truncated");

  // Remove.
  EXPECT_GT(layout.remove_blob(upper), 0u);
  check("removed");
  auto removed = layout.flatten(image.value());
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().code, Errc::not_found);
}

TEST(LayoutTest, TornPutDropsTheKeptTree) {
  Layout layout;
  auto image = two_layer_image(layout);
  ASSERT_TRUE(image.ok());
  const Digest upper = image.value().manifest.layers.back().digest;
  const std::string pristine = layout.get_blob(upper).value();
  ASSERT_TRUE(layout.flatten(image.value()).ok());
  support::FaultInjector faults;
  faults.tear_next(kBlobPutSite);
  layout.set_fault_injector(&faults);
  EXPECT_THROW(layout.put_blob(pristine, kMediaTypeLayer), support::CrashInjected);
  layout.set_fault_injector(nullptr);
  auto torn = layout.flatten(image.value());
  expect_same(torn, fold_of_stored_bytes(layout, image.value()), "torn");
  EXPECT_FALSE(torn.ok());
}

TEST(LayoutTest, CopiesAreIsolatedFromEachOther) {
  Layout source;
  auto image = two_layer_image(source);
  ASSERT_TRUE(image.ok());
  const Digest lower = image.value().manifest.layers.front().digest;
  const Digest upper = image.value().manifest.layers.back().digest;
  auto original = source.flatten(image.value());
  ASSERT_TRUE(original.ok());
  const std::string upper_bytes = source.get_blob(upper).value();

  // Mutates `target` and checks that `other` did not move.
  auto mutate_and_check = [&](Layout& target, const Layout& other, const std::string& side) {
    const Digest extra = target.put_blob("only on one side", "text/plain").digest;
    target.set_blob_bytes(upper, upper_bytes.substr(0, 1024));
    EXPECT_GT(target.remove_blob(lower), 0u);
    EXPECT_FALSE(target.flatten(image.value()).ok());
    EXPECT_FALSE(other.has_blob(extra)) << side;
    EXPECT_TRUE(other.has_blob(lower)) << side;
    EXPECT_EQ(other.get_blob(upper).value(), upper_bytes) << side;
    expect_same(other.flatten(image.value()), original, side);
    EXPECT_TRUE(other.fsck().ok()) << side;
  };

  Layout copy = source;
  mutate_and_check(copy, source, "writes on the copy");
  Layout second = source;
  mutate_and_check(source, second, "writes on the source");
}

TEST(LayoutTest, CopyOfAnAttachedLayoutReadsCorrectBytes) {
  Layout attached;
  auto image = two_layer_image(attached);
  ASSERT_TRUE(image.ok());
  const Digest upper = image.value().manifest.layers.back().digest;
  auto original = attached.flatten(image.value());  // keeps trees, until attach
  ASSERT_TRUE(original.ok());
  auto backend = std::make_shared<store::MemStore>();
  ASSERT_TRUE(attached.attach(backend).ok());
  expect_same(attached.flatten(image.value()), original, "attached");

  Layout copy = attached;
  for (const Digest& digest : attached.blob_digests()) {
    EXPECT_EQ(copy.get_blob(digest).value(), attached.get_blob(digest).value());
  }
  expect_same(copy.flatten(image.value()), original, "copy");
  EXPECT_TRUE(copy.fsck().ok());

  // Another writer damages the backend: the attached layout sees it (it
  // keeps no trees), its earlier copy does not.
  const std::string key = "blobs/sha256/" + upper.value.substr(std::string("sha256:").size());
  ASSERT_TRUE(backend->put(key, backend->get(key).value().substr(0, 512)).ok());
  auto damaged = attached.flatten(image.value());
  expect_same(damaged, fold_of_stored_bytes(attached, image.value()), "attached after damage");
  EXPECT_FALSE(damaged.ok());
  expect_same(copy.flatten(image.value()), original, "copy after damage");
}

TEST(LayoutTest, ConcurrentCopiesAndFlattensOfOneTemplate) {
  Layout base;
  std::vector<vfs::Filesystem> layers;
  for (int i = 0; i < 4; ++i) {
    vfs::Filesystem layer;
    ASSERT_TRUE(layer.write_file("/generation", std::to_string(i)).ok());
    ASSERT_TRUE(layer.write_file("/data/file" + std::to_string(i), std::string(3000, 'a' + i)).ok());
    layers.push_back(std::move(layer));
  }
  auto image = base.create_image(sample_config(), layers, "template");
  ASSERT_TRUE(image.ok());
  auto expected = fold_of_stored_bytes(base, image.value());
  ASSERT_TRUE(expected.ok());
  const Layout template_layout = base;  // never flattened: the threads race to unpack

  auto matches = [&](const Result<vfs::Filesystem>& rootfs) {
    return rootfs.ok() && rootfs.value() == expected.value();
  };
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Layout copy = template_layout;
        if (!matches(copy.flatten(image.value()))) ++mismatches;
        if (!matches(template_layout.flatten(image.value()))) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Adopts every blob of `image` from `source` into `target` by reference and
/// tags it, the way a registry pull does.
Status adopt_image(const Layout& source, const Image& image, Layout& target) {
  std::vector<Descriptor> blobs = image.manifest.layers;
  blobs.push_back(image.manifest.config);
  for (const Descriptor& blob : blobs) {
    COMT_TRY(SharedBlob shared, source.share_blob(blob.digest));
    COMT_TRY_STATUS(target.adopt_blob(blob, std::move(shared)));
  }
  COMT_TRY(Digest digest, target.add_manifest(image.manifest, "adopted"));
  (void)digest;
  return Status::success();
}

TEST(LayoutTest, AdoptedBlobsShareTheirTreeAndKeepTheirOwnBytes) {
  Layout source;
  auto image = two_layer_image(source);
  ASSERT_TRUE(image.ok());
  const Descriptor lower = image.value().manifest.layers.front();
  const Descriptor upper = image.value().manifest.layers.back();
  const std::string pristine = source.get_blob(upper.digest).value();

  // Bytes that do not match the descriptor are refused, and nothing moves.
  Layout refused;
  const Digest held = refused.put_blob("already here", "text/plain").digest;
  auto mismatched = source.share_blob(lower.digest);
  ASSERT_TRUE(mismatched.ok());
  Status refusal = refused.adopt_blob(upper, std::move(mismatched).value());
  ASSERT_FALSE(refusal.ok());
  EXPECT_EQ(refusal.error().code, Errc::corrupt);
  EXPECT_NE(refusal.error().message.find(upper.digest.value), std::string::npos);
  EXPECT_EQ(refused.blob_digests(), std::vector<Digest>{held});
  EXPECT_TRUE(refused.fsck().ok());

  // Two adopters of one source flatten to the fold of tar::unpack, binding
  // the nodes of the one tree the first flatten unpacked.
  Layout first;
  Layout second;
  ASSERT_TRUE(adopt_image(source, image.value(), first).ok());
  ASSERT_TRUE(adopt_image(source, image.value(), second).ok());
  const auto expected = fold_of_stored_bytes(source, image.value());
  ASSERT_TRUE(expected.ok());
  auto first_root = first.flatten(image.value());
  auto second_root = second.flatten(image.value());
  expect_same(first_root, expected, "first adopter");
  expect_same(second_root, expected, "second adopter");
  ASSERT_TRUE(first_root.ok() && second_root.ok());
  EXPECT_EQ(first_root.value().lookup("/marker"), second_root.value().lookup("/marker"));
  auto source_root = source.flatten(image.value());
  ASSERT_TRUE(source_root.ok());
  EXPECT_EQ(source_root.value().lookup("/marker"), first_root.value().lookup("/marker"));

  // Damage on the source shows in the source's flatten, not in an adopter's.
  std::string flipped = pristine;
  const std::size_t payload = flipped.find("upper-marker-payload");
  ASSERT_NE(payload, std::string::npos);
  flipped[payload] = 'U';
  source.set_blob_bytes(upper.digest, flipped);
  auto damaged = source.flatten(image.value());
  expect_same(damaged, fold_of_stored_bytes(source, image.value()), "damaged source");
  ASSERT_TRUE(damaged.ok());
  EXPECT_EQ(damaged.value().read_file("/marker").value(), "Upper-marker-payload");
  for (const Layout* adopter : {&first, &second}) {
    EXPECT_EQ(adopter->get_blob(upper.digest).value(), pristine);
    expect_same(adopter->flatten(image.value()), expected, "adopter after damage");
    EXPECT_TRUE(adopter->fsck().ok());
  }

  // A put_blob heal restores the source's own view.
  source.put_blob(pristine, kMediaTypeLayer);
  expect_same(source.flatten(image.value()), expected, "healed source");
  EXPECT_TRUE(source.fsck().ok());
}

TEST(LayoutTest, AProofDoesNotCrossDigests) {
  Layout source;
  const Descriptor proven = source.put_blob("proven bytes", "text/plain");
  const Descriptor other = Layout().put_blob("other bytes", "text/plain");
  auto shared = source.share_blob(proven.digest);
  ASSERT_TRUE(shared.ok());

  // put_blob proved the buffer against its own digest; adopted under another
  // digest it is hashed, and refused.
  Layout target;
  Status adopted = target.adopt_blob(other, shared.value());
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.error().code, Errc::corrupt);
  EXPECT_NE(adopted.error().message.find(other.digest.value), std::string::npos);
  EXPECT_FALSE(target.has_blob(other.digest));
  ASSERT_TRUE(target.adopt_blob(proven, shared.value()).ok());

  // A proof handed over with bytes (a chunk reassembly's) covers its digest
  // only.
  adopted = target.adopt_blob(other, SharedBlob("proven bytes", proven.digest));
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.error().code, Errc::corrupt);
  EXPECT_FALSE(target.has_blob(other.digest));
  EXPECT_TRUE(target.fsck().ok());
}

TEST(LayoutTest, BytesThatRotUnderAProvenBufferAreHashedOnTheNextTransfer) {
  Layout source;
  auto image = two_layer_image(source);
  ASSERT_TRUE(image.ok());
  const Digest upper = image.value().manifest.layers.back().digest;
  Layout first;
  ASSERT_TRUE(adopt_image(source, image.value(), first).ok());

  // Rot under the digest: the slot that carries the old buffer's proof stays
  // kept, and only its binding to that buffer keeps the proof off these bytes.
  std::string rotten = source.get_blob(upper).value();
  rotten[rotten.size() / 2] ^= 0x01;
  source.set_blob_bytes(upper, rotten);
  Layout second;
  Status adopted = adopt_image(source, image.value(), second);
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.error().code, Errc::corrupt);
  EXPECT_NE(adopted.error().message.find(upper.value), std::string::npos);
  EXPECT_FALSE(second.has_blob(upper));

  // The first adopter keeps, and passes on, the true bytes.
  Layout third;
  EXPECT_TRUE(adopt_image(first, image.value(), third).ok());
  EXPECT_TRUE(third.fsck().ok());
}

// The paper's §4.5 file-system simulator: flattening multiple layers with
// deletes/opaque markers, parameterized over layer counts.
class FlattenDepth : public ::testing::TestWithParam<int> {};

TEST_P(FlattenDepth, LastWriterWins) {
  Layout layout;
  std::vector<vfs::Filesystem> layers;
  for (int i = 0; i < GetParam(); ++i) {
    vfs::Filesystem layer;
    ASSERT_TRUE(layer.write_file("/generation", std::to_string(i)).ok());
    ASSERT_TRUE(layer.write_file("/file" + std::to_string(i), "mine").ok());
    layers.push_back(std::move(layer));
  }
  auto image = layout.create_image(sample_config(), layers, "depth");
  ASSERT_TRUE(image.ok());
  auto rootfs = layout.flatten(image.value());
  ASSERT_TRUE(rootfs.ok());
  EXPECT_EQ(rootfs.value().read_file("/generation").value(),
            std::to_string(GetParam() - 1));
  for (int i = 0; i < GetParam(); ++i) {
    EXPECT_TRUE(rootfs.value().exists("/file" + std::to_string(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, FlattenDepth, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace comt::oci
