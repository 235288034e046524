#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "store/cas.hpp"
#include "store/disk.hpp"
#include "store/remote.hpp"
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
// wait_change — the watch a lease waiter blocks in, on every backend.

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// A watch of `key` (holding `seen`) with a 10 s deadline, while `write` runs
/// on another thread 20 ms in: the write must end the watch, well under 1 s.
void expect_write_ends_watch(const KvStore& watched, std::string_view key,
                             const std::optional<std::string>& seen,
                             const std::function<void()>& write) {
  const auto start = Clock::now();
  std::thread writer([&] {
    std::this_thread::sleep_for(milliseconds(20));
    write();
  });
  auto changed = watched.wait_change(key, seen, start + std::chrono::seconds(10));
  writer.join();
  ASSERT_TRUE(changed.ok()) << changed.error().to_string();
  EXPECT_TRUE(changed.value());
  EXPECT_LT(Clock::now() - start, milliseconds(1000));
}

/// The watch contract. `torn_site` is the site that tears a put through `kv`;
/// `inner`, for a wrapper, is the store it wraps, whose own writes must wake
/// a watch made through the wrapper too.
void exercise_watch_contract(KvStore& kv, std::string_view torn_site,
                             KvStore* inner = nullptr) {
  const auto far = [] { return Clock::now() + std::chrono::seconds(10); };
  const auto near = [] { return Clock::now() + milliseconds(30); };
  ASSERT_TRUE(kv.put("w/a", "one").ok());

  // A value that already differs returns at once: present against absent,
  // absent against present, other bytes.
  const auto start = Clock::now();
  EXPECT_TRUE(kv.wait_change("w/a", std::nullopt, far()).value());
  EXPECT_TRUE(kv.wait_change("w/absent", std::string("one"), far()).value());
  EXPECT_TRUE(kv.wait_change("w/a", std::string("two"), far()).value());
  EXPECT_LT(Clock::now() - start, milliseconds(1000));

  // Nothing changes: false at a near deadline.
  EXPECT_FALSE(kv.wait_change("w/a", std::string("one"), near()).value());
  EXPECT_FALSE(kv.wait_change("w/absent", std::nullopt, near()).value());

  // A put of identical bytes is no change.
  {
    std::thread same([&] {
      std::this_thread::sleep_for(milliseconds(5));
      EXPECT_TRUE(kv.put("w/a", "one").ok());
    });
    auto changed = kv.wait_change("w/a", std::string("one"), Clock::now() + milliseconds(60));
    same.join();
    EXPECT_FALSE(changed.value());
  }

  // Each write from another thread ends the watch.
  expect_write_ends_watch(kv, "w/a", std::string("one"),
                          [&] { EXPECT_TRUE(kv.put("w/a", "two").ok()); });
  expect_write_ends_watch(kv, "w/a", std::string("two"),
                          [&] { EXPECT_TRUE(kv.erase("w/a").ok()); });
  expect_write_ends_watch(kv, "w/a", std::nullopt,
                          [&] { EXPECT_TRUE(kv.put("w/a", "three").ok()); });
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  faults.tear_next(std::string(torn_site));
  expect_write_ends_watch(kv, "w/a", std::string("three"), [&] {
    EXPECT_THROW((void)kv.put("w/a", "a write that dies midway"), support::CrashInjected);
  });
  kv.set_fault_injector(nullptr);
  EXPECT_EQ(faults.injected(std::string(torn_site)), 1u);

  if (inner != nullptr) {
    ASSERT_TRUE(kv.put("w/b", "one").ok());
    expect_write_ends_watch(kv, "w/b", std::string("one"),
                            [&] { EXPECT_TRUE(inner->erase("w/b").ok()); });
  }
}

TEST(MemStoreTest, HonoursWatchContract) {
  MemStore kv;
  exercise_watch_contract(kv, kStorePutSite);
}

TEST_F(StoreDirTest, DiskStoreHonoursWatchContract) {
  DiskStore kv(dir());
  exercise_watch_contract(kv, kStorePutSite);
}

TEST(RemoteStoreTest, HonoursWatchContract) {
  auto inner = std::make_shared<MemStore>();
  RemoteStore kv(inner);
  exercise_watch_contract(kv, kRemotePutSite, inner.get());
}

TEST_F(StoreDirTest, RemoteOverDiskHonoursWatchContract) {
  auto inner = std::make_shared<DiskStore>(dir());
  RemoteStore kv(inner);
  exercise_watch_contract(kv, kRemotePutSite, inner.get());
}

/// Writes to other keys while a watch of "watched" blocks: only the write of
/// the watched key may notify the watcher ("store.watch_wakes").
void expect_only_watched_key_wakes(KvStore& kv) {
  obs::MetricsRegistry metrics;
  kv.set_observer(nullptr, &metrics);
  ASSERT_TRUE(kv.put("watched", "v").ok());
  std::thread writer([&] {
    std::this_thread::sleep_for(milliseconds(20));  // the watch has begun
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(kv.put("other/" + std::to_string(i), "x").ok());
      std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_TRUE(kv.put("watched", "w").ok());
  });
  auto changed = kv.wait_change("watched", std::string("v"), Clock::now() + std::chrono::seconds(10));
  writer.join();
  EXPECT_TRUE(changed.value());
  EXPECT_LE(metrics.counter_value("store.watch_wakes"), 1u);
  kv.set_observer(nullptr, nullptr);
}

TEST(MemStoreTest, WriteWakesOnlyTheWatchersOfItsKey) {
  MemStore kv;
  expect_only_watched_key_wakes(kv);
}

TEST_F(StoreDirTest, DiskStoreWriteWakesOnlyTheWatchersOfItsKey) {
  DiskStore kv(dir());
  expect_only_watched_key_wakes(kv);
}

TEST(RemoteStoreTest, WatchPassesTheFaultSiteAndTheBreaker) {
  RemoteStore::Options options;
  options.max_attempts = 2;
  options.breaker_threshold = 1;
  options.breaker_cooldown = std::chrono::seconds(60);
  RemoteStore kv(std::make_shared<MemStore>(), options);
  support::FaultInjector faults;
  kv.set_fault_injector(&faults);
  ASSERT_TRUE(kv.put("k", "v").ok());
  // A transient fault is retried away like a get's.
  faults.fail_next(std::string(kRemoteGetSite), 1);
  EXPECT_TRUE(kv.wait_change("k", std::nullopt, Clock::now()).value());
  EXPECT_EQ(kv.retries(), 1u);
  // Retries exhausted: the watch fails, and that trips the breaker…
  faults.fail_next(std::string(kRemoteGetSite), 2);
  EXPECT_FALSE(kv.wait_change("k", std::nullopt, Clock::now()).ok());
  EXPECT_EQ(kv.breaker_state(), RemoteStore::BreakerState::open);
  // …which then fails the next watch fast.
  EXPECT_FALSE(kv.wait_change("k", std::nullopt, Clock::now()).ok());
  EXPECT_EQ(kv.breaker_fast_fails(), 1u);
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
