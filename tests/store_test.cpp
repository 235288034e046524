#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/metrics.hpp"
#include "store/cas.hpp"
#include "store/disk.hpp"
#include "store/remote.hpp"
#include "store/sharded.hpp"
#include "store/store.hpp"
#include "store/wire.hpp"
#include "support/fault.hpp"
#include "support/sha256.hpp"

namespace comt::store {
namespace {

namespace stdfs = std::filesystem;

/// Unique temp directory per test, removed on teardown.
class StoreDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = stdfs::temp_directory_path() /
           (std::string("comt-store-") + info->name());
    stdfs::remove_all(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  stdfs::path dir_;
};

// ---------------------------------------------------------------------------
// Conformance: every backend honours the same KvStore contract.

void exercise_kv_contract(KvStore& kv) {
  // Empty store.
  EXPECT_FALSE(kv.contains("a"));
  EXPECT_EQ(kv.get("a").error().code, Errc::not_found);
  EXPECT_EQ(kv.size("a").error().code, Errc::not_found);
  EXPECT_TRUE(kv.list().empty());
  EXPECT_TRUE(kv.erase("a").ok());  // erase is idempotent

  // Put / get round-trip, including binary values with NUL bytes.
  const std::string binary("\x00\x01\xFFpayload\n", 11);
  ASSERT_TRUE(kv.put("a", "alpha").ok());
  ASSERT_TRUE(kv.put("dir/b", binary).ok());
  ASSERT_TRUE(kv.put("dir/sub/c", "").ok());
  EXPECT_EQ(kv.get("a").value(), "alpha");
  EXPECT_EQ(kv.get("dir/b").value(), binary);
  EXPECT_EQ(kv.get("dir/sub/c").value(), "");
  EXPECT_EQ(kv.size("dir/b").value(), binary.size());
  EXPECT_TRUE(kv.contains("dir/sub/c"));

  // Replace.
  ASSERT_TRUE(kv.put("a", "alpha2").ok());
  EXPECT_EQ(kv.get("a").value(), "alpha2");

  // list() is sorted and prefix-filtered.
  auto all = kv.list();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, "a");
  EXPECT_EQ(all[1].key, "dir/b");
  EXPECT_EQ(all[2].key, "dir/sub/c");
  EXPECT_EQ(all[1].size, binary.size());
  auto under_dir = kv.list("dir/");
  ASSERT_EQ(under_dir.size(), 2u);
  EXPECT_EQ(under_dir[0].key, "dir/b");

  // Invalid keys are rejected, not mangled.
  EXPECT_EQ(kv.put("", "x").error().code, Errc::invalid_argument);
  EXPECT_EQ(kv.get("").error().code, Errc::invalid_argument);

  // Erase really removes.
  ASSERT_TRUE(kv.erase("dir/b").ok());
  EXPECT_FALSE(kv.contains("dir/b"));
  EXPECT_EQ(kv.list("dir/").size(), 1u);

  EXPECT_TRUE(kv.sync().ok());
}

TEST(MemStoreTest, HonoursKvContract) {
  MemStore kv;
  exercise_kv_contract(kv);
}

TEST(MemStoreTest, CopySharesValuesButNotWrites) {
  MemStore source;
  ASSERT_TRUE(source.put("a", "alpha").ok());
  ASSERT_TRUE(source.put("b", "beta").ok());
  MemStore copy(source);
  EXPECT_EQ(copy.list(), source.list());
  EXPECT_EQ(copy.get("a").value(), "alpha");
  EXPECT_EQ(copy.get("b").value(), "beta");

  // Writes on the copy stay on the copy.
  ASSERT_TRUE(copy.put("a", "changed").ok());
  ASSERT_TRUE(copy.erase("b").ok());
  ASSERT_TRUE(copy.put("c", "copy only").ok());
  EXPECT_EQ(source.get("a").value(), "alpha");
  EXPECT_EQ(source.get("b").value(), "beta");
  EXPECT_FALSE(source.contains("c"));

  // And the reverse.
  ASSERT_TRUE(source.put("b", "source only").ok());
  ASSERT_TRUE(source.erase("a").ok());
  EXPECT_EQ(copy.get("a").value(), "changed");
  EXPECT_FALSE(copy.contains("b"));
  EXPECT_EQ(copy.size("c").value(), 9u);

  // A copy of a copy honours the whole contract on its own.
  MemStore empty;
  MemStore fresh(empty);
  exercise_kv_contract(fresh);
  EXPECT_TRUE(empty.list().empty());
}

TEST(MemStoreTest, SharedBuffersMoveWithoutACopyAndCount) {
  MemStore kv;
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);
  const auto buffer = std::make_shared<const std::string>("12345");
  ASSERT_TRUE(kv.put_shared("k", buffer).ok());
  auto shared = kv.get_shared("k");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value(), buffer);  // the stored buffer itself
  EXPECT_EQ(kv.get("k").value(), "12345");
  EXPECT_EQ(kv.get_shared("absent").error().code, Errc::not_found);
  EXPECT_EQ(metrics.counter_value("store.puts"), 1u);
  EXPECT_EQ(metrics.counter_value("store.put_bytes"), 5u);
  EXPECT_EQ(metrics.counter_value("store.gets"), 2u);
  EXPECT_EQ(metrics.counter_value("store.get_bytes"), 10u);

  // A torn put_shared persists a prefix, as put does; the buffer is intact.
  support::FaultInjector faults;
  faults.tear_next(kStorePutSite, 0.4);
  kv.set_fault_injector(&faults);
  EXPECT_THROW((void)kv.put_shared("k", std::make_shared<const std::string>("abcdefghij")),
               support::CrashInjected);
  EXPECT_EQ(kv.get("k").value(), "abcd");
  EXPECT_EQ(*buffer, "12345");
}

TEST_F(StoreDirTest, DiskStoreHonoursKvContract) {
  DiskStore kv(dir());
  exercise_kv_contract(kv);
}

TEST_F(StoreDirTest, DiskStoreUnframedHonoursKvContract) {
  DiskStore kv(dir(), DiskStore::Options{/*framed=*/false});
  exercise_kv_contract(kv);
}

// ---------------------------------------------------------------------------
// DiskStore specifics.

TEST_F(StoreDirTest, ValuesSurviveReopen) {
  {
    DiskStore kv(dir());
    ASSERT_TRUE(kv.put("journal/org/app:1.0|x86", "state").ok());
    ASSERT_TRUE(kv.sync().ok());
  }
  DiskStore reopened(dir());
  EXPECT_EQ(reopened.get("journal/org/app:1.0|x86").value(), "state");
  auto listed = reopened.list("journal/");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].key, "journal/org/app:1.0|x86");
}

TEST_F(StoreDirTest, HostileKeysRoundTripThroughTheFilesystem) {
  DiskStore kv(dir());
  // ':', '|', '+', '%', spaces, dot-only segments, UTF-8 — every byte a
  // journal key or tag can carry must survive encode → file → decode.
  const std::vector<std::string> keys = {
      "org/app:1.0+coM|x86",
      "with space/and%percent",
      "../../escape attempt",  // encoded, cannot traverse out of the root
      ".",
      "tricky/..",
      "caf\xC3\xA9/\xE2\x98\x83",
  };
  for (const std::string& key : keys) {
    ASSERT_TRUE(kv.put(key, "v:" + key).ok()) << key;
  }
  for (const std::string& key : keys) {
    EXPECT_EQ(kv.get(key).value(), "v:" + key) << key;
  }
  auto listed = kv.list();
  ASSERT_EQ(listed.size(), keys.size());
  // Every file stayed inside the root (the ".." segments were encoded).
  EXPECT_FALSE(stdfs::exists(dir_.parent_path() / "escape attempt"));
}

TEST_F(StoreDirTest, OpeningMissingDirectoryHasNoSideEffects) {
  DiskStore kv(dir());
  EXPECT_TRUE(kv.list().empty());
  EXPECT_FALSE(kv.contains("x"));
  EXPECT_FALSE(stdfs::exists(dir_));  // still nothing on disk
  ASSERT_TRUE(kv.put("x", "1").ok());
  EXPECT_TRUE(stdfs::exists(dir_));  // created lazily by the first put
}

TEST_F(StoreDirTest, TruncatedValueIsCorruptNotWrongBytes) {
  DiskStore kv(dir());
  ASSERT_TRUE(kv.put("victim", "payload-that-matters").ok());
  // Truncate the file mid-payload, like a torn flush.
  auto files = kv.list();
  ASSERT_EQ(files.size(), 1u);
  const stdfs::path file = dir_ / "victim";
  ASSERT_TRUE(stdfs::exists(file));
  stdfs::resize_file(file, stdfs::file_size(file) / 2);
  auto result = kv.get("victim");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::corrupt);

  // Truncating into the frame header is also corrupt, not a crash.
  stdfs::resize_file(file, 3);
  EXPECT_EQ(kv.get("victim").error().code, Errc::corrupt);
}

TEST_F(StoreDirTest, BitFlippedValueIsCorrupt) {
  DiskStore kv(dir());
  ASSERT_TRUE(kv.put("victim", "payload-that-matters").ok());
  const stdfs::path file = dir_ / "victim";
  std::string raw;
  {
    std::ifstream in(file, std::ios::binary);
    raw.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  raw[raw.size() - 1] ^= 0x01;  // flip one payload bit
  std::ofstream(file, std::ios::binary | std::ios::trunc) << raw;
  auto result = kv.get("victim");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::corrupt);
}

TEST_F(StoreDirTest, UnframedModeReturnsDamagedBytesVerbatim) {
  // Unframed stores carry externally verified formats (OCI blobs); the store
  // itself must hand back whatever is on disk.
  DiskStore kv(dir(), DiskStore::Options{/*framed=*/false});
  ASSERT_TRUE(kv.put("blob", "original").ok());
  std::ofstream(dir_ / "blob", std::ios::binary | std::ios::trunc) << "tampered";
  EXPECT_EQ(kv.get("blob").value(), "tampered");
}

TEST_F(StoreDirTest, TornPutCrashesAndLeavesDetectablePrefix) {
  DiskStore kv(dir());
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  ASSERT_TRUE(kv.put("ok", "untouched").ok());
  faults.tear_next(std::string(kStorePutSite));
  EXPECT_THROW((void)kv.put("torn", "this write dies midway"), support::CrashInjected);
  // The next incarnation sees the torn key as corrupt — never as a complete
  // value — and every other key intact.
  DiskStore next(dir());
  EXPECT_EQ(next.get("torn").error().code, Errc::corrupt);
  EXPECT_EQ(next.get("ok").value(), "untouched");
}

TEST_F(StoreDirTest, MetricsCountOperations) {
  DiskStore kv(dir());
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);
  ASSERT_TRUE(kv.put("k", "12345").ok());
  ASSERT_TRUE(kv.get("k").ok());
  ASSERT_TRUE(kv.erase("k").ok());
  ASSERT_TRUE(kv.sync().ok());
  EXPECT_EQ(metrics.counter_value("store.puts"), 1u);
  EXPECT_EQ(metrics.counter_value("store.put_bytes"), 5u);
  EXPECT_EQ(metrics.counter_value("store.gets"), 1u);
  EXPECT_EQ(metrics.counter_value("store.get_bytes"), 5u);
  EXPECT_EQ(metrics.counter_value("store.erases"), 1u);
  EXPECT_EQ(metrics.counter_value("store.syncs"), 1u);
  EXPECT_EQ(metrics.counter_value("store.corrupt"), 0u);
}

// ---------------------------------------------------------------------------
// CasStore.

TEST(CasStoreTest, PutReturnsContentAddressAndGetVerifies) {
  CasStore cas(std::make_shared<MemStore>(), "blobs/");
  auto digest = cas.put("layer bytes");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), "sha256:" + Sha256::hex_digest("layer bytes"));
  EXPECT_TRUE(cas.contains(digest.value()));
  EXPECT_EQ(cas.get(digest.value()).value(), "layer bytes");
  EXPECT_EQ(cas.count(), 1u);
  EXPECT_EQ(cas.total_bytes(), std::string("layer bytes").size());

  // The backend key is the OCI blobs/ layout.
  EXPECT_TRUE(cas.backend().contains(
      "blobs/sha256/" + Sha256::hex_digest("layer bytes")));
}

TEST(CasStoreTest, GetRefusesBytesThatNoLongerMatchTheirAddress) {
  CasStore cas(std::make_shared<MemStore>());
  auto digest = cas.put("good").value();
  ASSERT_TRUE(cas.put_at(digest, "evil").ok());  // bit-rot stand-in
  auto verified = cas.get(digest);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, Errc::corrupt);
  // fsck-style callers still read the damaged bytes explicitly.
  EXPECT_EQ(cas.get_unverified(digest).value(), "evil");
}

TEST(CasStoreTest, MalformedDigestsAreRejected) {
  CasStore cas(std::make_shared<MemStore>());
  EXPECT_EQ(cas.get("md5:abc").error().code, Errc::invalid_argument);
  EXPECT_EQ(cas.get("sha256").error().code, Errc::invalid_argument);
  EXPECT_EQ(cas.get("missing-prefix").error().code, Errc::invalid_argument);
}

TEST(CasStoreTest, EraseReportsFreedBytes) {
  CasStore cas(std::make_shared<MemStore>());
  auto digest = cas.put("12345678").value();
  EXPECT_EQ(cas.erase(digest), 8u);
  EXPECT_EQ(cas.erase(digest), 0u);  // already gone
  EXPECT_FALSE(cas.contains(digest));
  EXPECT_EQ(cas.get(digest).error().code, Errc::not_found);
}

TEST(CasStoreTest, DigestsAreSortedAndScopedToPrefix) {
  auto backend = std::make_shared<MemStore>();
  CasStore cas(backend, "blobs/");
  ASSERT_TRUE(backend->put("unrelated/key", "x").ok());  // other keyspace
  auto d1 = cas.put("aaa").value();
  auto d2 = cas.put("bbb").value();
  auto digests = cas.digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_TRUE(std::is_sorted(digests.begin(), digests.end()));
  EXPECT_TRUE(digests[0] == d1 || digests[0] == d2);
}

TEST_F(StoreDirTest, CasOverDiskSurvivesReopen) {
  std::string digest;
  {
    CasStore cas(std::make_shared<DiskStore>(dir()), "blobs/");
    digest = cas.put("persisted layer").value();
  }
  CasStore reopened(std::make_shared<DiskStore>(dir()), "blobs/");
  EXPECT_EQ(reopened.get(digest).value(), "persisted layer");
  EXPECT_EQ(reopened.count(), 1u);
}

// ---------------------------------------------------------------------------
// Wire codec (shared with the journal).

TEST(WireTest, RoundTripsAndBoundsChecks) {
  std::string buffer;
  wire::put_u32(buffer, 0xDEADBEEFu);
  wire::put_u64(buffer, 0x0123456789ABCDEFull);
  wire::put_str(buffer, "hello");
  wire::Reader reader{buffer};
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_TRUE(reader.ok);
  EXPECT_TRUE(reader.at_end());
  // Reading past the end trips ok instead of walking off the buffer.
  EXPECT_EQ(reader.u32(), 0u);
  EXPECT_FALSE(reader.ok);
}

TEST(WireTest, ChecksumDetectsSingleBitFlips) {
  const std::string payload = "some journal record payload";
  const std::uint64_t checksum = wire::fnv1a64(payload);
  std::string flipped = payload;
  flipped[5] ^= 0x10;
  EXPECT_NE(wire::fnv1a64(flipped), checksum);
}

// ---------------------------------------------------------------------------
// compare_and_put — the lease protocol's primitive, on every backend.

void exercise_cas_contract(KvStore& kv) {
  // Claim an absent key.
  EXPECT_TRUE(kv.compare_and_put("lease", std::nullopt, "v1").value());
  EXPECT_EQ(kv.get("lease").value(), "v1");
  // A second absent-claim loses.
  EXPECT_FALSE(kv.compare_and_put("lease", std::nullopt, "v1b").value());
  EXPECT_EQ(kv.get("lease").value(), "v1");
  // Swap on the exact current value.
  EXPECT_TRUE(kv.compare_and_put("lease", std::optional<std::string>("v1"), "v2").value());
  EXPECT_EQ(kv.get("lease").value(), "v2");
  // Stale expectation loses without touching the value.
  EXPECT_FALSE(kv.compare_and_put("lease", std::optional<std::string>("v1"), "v3").value());
  EXPECT_EQ(kv.get("lease").value(), "v2");
  // Empty keys are rejected like everywhere else.
  EXPECT_EQ(kv.compare_and_put("", std::nullopt, "x").error().code,
            Errc::invalid_argument);
}

TEST(MemStoreTest, CompareAndPutContract) {
  MemStore kv;
  exercise_cas_contract(kv);
}

TEST_F(StoreDirTest, DiskStoreCompareAndPutContract) {
  DiskStore kv(dir());
  exercise_cas_contract(kv);
}

TEST_F(StoreDirTest, CompareAndPutTreatsCorruptValueAsAbsent) {
  DiskStore kv(dir());
  ASSERT_TRUE(kv.put("lease", "torn-lease-record").ok());
  const stdfs::path file = dir_ / "lease";
  stdfs::resize_file(file, stdfs::file_size(file) / 2);
  ASSERT_EQ(kv.get("lease").error().code, Errc::corrupt);
  // A torn lease record must stay claimable, never wedge the key.
  EXPECT_TRUE(kv.compare_and_put("lease", std::nullopt, "fresh").value());
  EXPECT_EQ(kv.get("lease").value(), "fresh");
}

// ---------------------------------------------------------------------------
// ShardedStore.

std::vector<std::shared_ptr<KvStore>> mem_shards(std::size_t n) {
  std::vector<std::shared_ptr<KvStore>> shards;
  for (std::size_t i = 0; i < n; ++i) shards.push_back(std::make_shared<MemStore>());
  return shards;
}

TEST(ShardedStoreTest, HonoursKvContract) {
  ShardedStore kv(mem_shards(3));
  exercise_kv_contract(kv);
}

TEST_F(StoreDirTest, ShardedOverDiskHonoursKvContract) {
  std::vector<std::shared_ptr<KvStore>> shards;
  for (int i = 0; i < 3; ++i) {
    shards.push_back(std::make_shared<DiskStore>(dir() + "/shard" + std::to_string(i)));
  }
  ShardedStore kv(std::move(shards));
  exercise_kv_contract(kv);
}

TEST(ShardedStoreTest, CompareAndPutContract) {
  ShardedStore kv(mem_shards(3));
  exercise_cas_contract(kv);
}

TEST(ShardedStoreTest, RoutingIsDeterministicAcrossInstances) {
  ShardedStore a(mem_shards(4));
  ShardedStore b(mem_shards(4));
  for (int i = 0; i < 64; ++i) {
    const std::string key = "journal/org/app:" + std::to_string(i) + "|x86";
    EXPECT_EQ(a.shard_of(key), b.shard_of(key)) << key;
  }
}

TEST_F(StoreDirTest, ShardedOverDiskSurvivesReopen) {
  auto open = [&] {
    std::vector<std::shared_ptr<KvStore>> shards;
    for (int i = 0; i < 3; ++i) {
      shards.push_back(
          std::make_shared<DiskStore>(dir() + "/shard" + std::to_string(i)));
    }
    return ShardedStore(std::move(shards));
  };
  {
    ShardedStore kv = open();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(kv.put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(kv.sync().ok());
  }
  ShardedStore reopened = open();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(reopened.get("k" + std::to_string(i)).value(), "v" + std::to_string(i));
  }
  EXPECT_EQ(reopened.list().size(), 20u);
}

TEST(ShardedStoreTest, KeysSpreadOverShards) {
  auto shards = mem_shards(4);
  ShardedStore kv(shards);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(kv.put("key-" + std::to_string(i), "v").ok());
  }
  std::size_t nonempty = 0;
  for (const auto& shard : shards) nonempty += shard->list().empty() ? 0 : 1;
  // 200 keys over 4 consistent-hash shards: every shard should own some.
  EXPECT_EQ(nonempty, 4u);
}

TEST(ShardedStoreTest, ReshardMovesOnlyReownedKeys) {
  auto shards = mem_shards(2);
  ShardedStore kv(shards);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(kv.put("key-" + std::to_string(i), std::string(10, 'v')).ok());
  }
  // Grow 2 → 3, reusing the two existing children.
  auto grown = shards;
  grown.push_back(std::make_shared<MemStore>());
  auto report = kv.reshard(grown);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().keys_total, static_cast<std::size_t>(n));
  EXPECT_EQ(report.value().shards_before, 2u);
  EXPECT_EQ(report.value().shards_after, 3u);
  // Consistent hashing: only the keys the new shard took over moved — far
  // fewer than a full reshuffle (which would move ~2/3 of them).
  EXPECT_GT(report.value().keys_moved, 0u);
  EXPECT_LT(report.value().keys_moved, static_cast<std::size_t>(n) / 2);
  EXPECT_EQ(report.value().bytes_moved, report.value().keys_moved * 10);
  // Every key still reads back, and the new shard really owns some.
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(kv.get("key-" + std::to_string(i)).value(), std::string(10, 'v'));
  }
  EXPECT_FALSE(grown[2]->list().empty());
  EXPECT_EQ(kv.list().size(), static_cast<std::size_t>(n));
}

TEST(ShardedStoreTest, PerShardMetricsSumToAggregate) {
  ShardedStore kv(mem_shards(3));
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv.put("key-" + std::to_string(i), "v").ok());
    ASSERT_TRUE(kv.get("key-" + std::to_string(i)).ok());
  }
  std::uint64_t shard_puts = 0, shard_gets = 0;
  for (int i = 0; i < 3; ++i) {
    shard_puts += metrics.counter_value("store.shard" + std::to_string(i) + ".puts");
    shard_gets += metrics.counter_value("store.shard" + std::to_string(i) + ".gets");
  }
  EXPECT_EQ(shard_puts, 30u);
  EXPECT_EQ(shard_gets, 30u);
  EXPECT_EQ(metrics.counter_value("store.puts"), 30u);
  EXPECT_EQ(metrics.counter_value("store.gets"), 30u);
}

// ---------------------------------------------------------------------------
// RemoteStore.

TEST(RemoteStoreTest, HonoursKvContract) {
  RemoteStore kv(std::make_shared<MemStore>());
  exercise_kv_contract(kv);
}

TEST_F(StoreDirTest, RemoteOverDiskHonoursKvContract) {
  RemoteStore kv(std::make_shared<DiskStore>(dir()));
  exercise_kv_contract(kv);
}

TEST(RemoteStoreTest, CompareAndPutContract) {
  RemoteStore kv(std::make_shared<MemStore>());
  exercise_cas_contract(kv);
}

TEST_F(StoreDirTest, RemoteOverDiskSurvivesReopen) {
  {
    RemoteStore kv(std::make_shared<DiskStore>(dir()));
    ASSERT_TRUE(kv.put("cache/entry", "compiled-bytes").ok());
    ASSERT_TRUE(kv.sync().ok());
  }
  RemoteStore reopened(std::make_shared<DiskStore>(dir()));
  EXPECT_EQ(reopened.get("cache/entry").value(), "compiled-bytes");
  EXPECT_EQ(reopened.size("cache/entry").value(), std::string("compiled-bytes").size());
}

TEST(RemoteStoreTest, TransientFaultsAreRetriedAway) {
  RemoteStore::Options options;
  options.max_attempts = 3;
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);

  ASSERT_TRUE(kv.put("k", "v").ok());
  faults.fail_next(std::string(kRemoteGetSite), 2);
  EXPECT_EQ(kv.get("k").value(), "v");  // 2 injected failures absorbed
  EXPECT_EQ(kv.retries(), 2u);
  EXPECT_EQ(metrics.counter_value("store.remote.retries"), 2u);
  EXPECT_EQ(faults.injected(std::string(kRemoteGetSite)), 2u);
}

TEST(RemoteStoreTest, RetryBudgetExhaustionSurfacesTheFault) {
  RemoteStore::Options options;
  options.max_attempts = 3;
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);

  faults.fail_next(std::string(kRemotePutSite), 3);
  auto status = kv.put("k", "v");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::failed);
  EXPECT_FALSE(kv.contains("k"));
  EXPECT_EQ(kv.retries(), 2u);  // two retries, then the third failure surfaced
  EXPECT_EQ(faults.injected(std::string(kRemotePutSite)), 3u);
}

TEST(RemoteStoreTest, TornTransferIsDetectedOnDownload) {
  RemoteStore kv(std::make_shared<MemStore>());
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  faults.tear_next(std::string(kRemotePutSite));
  EXPECT_THROW((void)kv.put("upload", "payload that dies mid-flight"),
               support::CrashInjected);
  // The endpoint kept a truncated object; the checksum frame catches it.
  EXPECT_EQ(kv.get("upload").error().code, Errc::corrupt);
  // The armed fault verifiably fired.
  EXPECT_GE(faults.injected(std::string(kRemotePutSite)), 1u);
}

TEST(RemoteStoreTest, LatencyInjectionDelaysOperations) {
  RemoteStore::Options options;
  options.get_latency = std::chrono::microseconds(2000);
  RemoteStore kv(std::make_shared<MemStore>(), options);
  ASSERT_TRUE(kv.put("k", "v").ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(kv.get("k").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(2000));
}

TEST(RemoteStoreTest, ConformsOverShardedBacking) {
  // The deployment stack: remote endpoint in front of a sharded substrate.
  RemoteStore kv(std::make_shared<ShardedStore>(mem_shards(3)));
  exercise_kv_contract(kv);
}

TEST(RemoteStoreBreakerTest, ConsecutiveFailuresTripTheBreaker) {
  RemoteStore::Options options;
  options.max_attempts = 1;  // every injected fault is a failed operation
  options.breaker_threshold = 3;
  options.breaker_cooldown = std::chrono::hours(1);  // stays open for the test
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);

  ASSERT_TRUE(kv.put("k", "v").ok());
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::closed);

  faults.fail_next(std::string(kRemoteGetSite), 3);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(kv.get("k").ok());
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::open);
  EXPECT_EQ(metrics.counter_value("store.remote.breaker.opens"), 1u);

  // Open breaker fails fast without consuming fault-injector events — the
  // endpoint is not even contacted.
  const std::uint64_t injected_before = faults.injected(std::string(kRemoteGetSite));
  EXPECT_FALSE(kv.get("k").ok());
  EXPECT_FALSE(kv.put("k2", "v2").ok());
  EXPECT_EQ(faults.injected(std::string(kRemoteGetSite)), injected_before);
  EXPECT_EQ(kv.breaker_fast_fails(), 2u);
  EXPECT_EQ(metrics.counter_value("store.remote.breaker.fast_fails"), 2u);
}

TEST(RemoteStoreBreakerTest, SuccessesResetTheConsecutiveCount) {
  RemoteStore::Options options;
  options.max_attempts = 1;
  options.breaker_threshold = 3;
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  ASSERT_TRUE(kv.put("k", "v").ok());

  // fail, fail, success, fail, fail, success … never three in a row.
  for (int round = 0; round < 3; ++round) {
    faults.fail_next(std::string(kRemoteGetSite), 2);
    EXPECT_FALSE(kv.get("k").ok());
    EXPECT_FALSE(kv.get("k").ok());
    EXPECT_TRUE(kv.get("k").ok());
  }
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::closed);
}

TEST(RemoteStoreBreakerTest, RecoversThroughHalfOpenProbe) {
  RemoteStore::Options options;
  options.max_attempts = 1;
  options.breaker_threshold = 2;
  options.breaker_cooldown = std::chrono::microseconds(1000);
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);
  ASSERT_TRUE(kv.put("k", "v").ok());

  faults.fail_next(std::string(kRemoteGetSite), 2);
  EXPECT_FALSE(kv.get("k").ok());
  EXPECT_FALSE(kv.get("k").ok());
  ASSERT_EQ(kv.breaker_state(), RemoteStore::BreakerState::open);

  // The endpoint healed (no armed faults). After the cooldown one probe is
  // admitted and its success closes the breaker.
  std::this_thread::sleep_for(std::chrono::microseconds(2000));
  EXPECT_EQ(kv.get("k").value(), "v");
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::closed);
  EXPECT_EQ(metrics.counter_value("store.remote.breaker.closes"), 1u);

  // Closed again: normal service, failures start a fresh count.
  EXPECT_EQ(kv.get("k").value(), "v");
}

TEST(RemoteStoreBreakerTest, FailedProbeReopensForAnotherCooldown) {
  RemoteStore::Options options;
  options.max_attempts = 1;
  options.breaker_threshold = 2;
  options.breaker_cooldown = std::chrono::microseconds(500);
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  ASSERT_TRUE(kv.put("k", "v").ok());

  faults.fail_next(std::string(kRemoteGetSite), 2);
  EXPECT_FALSE(kv.get("k").ok());
  EXPECT_FALSE(kv.get("k").ok());
  ASSERT_EQ(kv.breaker_state(), RemoteStore::BreakerState::open);

  // Still broken when the probe goes out: back to open, then a later probe
  // against the healed endpoint closes it.
  std::this_thread::sleep_for(std::chrono::microseconds(1000));
  faults.fail_next(std::string(kRemoteGetSite), 1);
  EXPECT_FALSE(kv.get("k").ok());
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::open);

  std::this_thread::sleep_for(std::chrono::microseconds(1000));
  EXPECT_EQ(kv.get("k").value(), "v");
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::closed);
}

TEST(RemoteStoreBreakerTest, DataErrorsDoNotFeedTheBreaker) {
  RemoteStore::Options options;
  options.breaker_threshold = 1;  // hair trigger: any transport failure trips
  RemoteStore kv(std::make_shared<MemStore>(), options);
  // not_found and corrupt are answers from a healthy endpoint.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(kv.get("absent").ok());
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::closed);
}

}  // namespace
}  // namespace comt::store
