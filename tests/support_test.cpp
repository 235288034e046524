#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/sha256.hpp"
#include "support/sha256_compress.hpp"
#include "support/strings.hpp"

namespace comt {
namespace {

// ---- Result / Status --------------------------------------------------------

Result<int> parse_positive(int value) {
  if (value <= 0) return make_error(Errc::invalid_argument, "not positive");
  return value;
}

TEST(ResultTest, SuccessCarriesValue) {
  Result<int> result = parse_positive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_TRUE(static_cast<bool>(result));
}

TEST(ResultTest, ErrorCarriesCategoryAndMessage) {
  Result<int> result = parse_positive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::invalid_argument);
  EXPECT_EQ(result.error().to_string(), "invalid_argument: not positive");
}

TEST(ResultTest, ValueOrFallsBack) {
  EXPECT_EQ(parse_positive(-5).value_or(42), 42);
  EXPECT_EQ(parse_positive(5).value_or(42), 5);
}

Result<int> doubled(int value) {
  COMT_TRY(int positive, parse_positive(value));
  return positive * 2;
}

TEST(ResultTest, TryMacroPropagates) {
  EXPECT_EQ(doubled(4).value(), 8);
  EXPECT_FALSE(doubled(-4).ok());
  EXPECT_EQ(doubled(-4).error().code, Errc::invalid_argument);
}

TEST(StatusTest, DefaultIsSuccess) {
  Status status;
  EXPECT_TRUE(status.ok());
}

TEST(StatusTest, ErrorStatus) {
  Status status = make_error(Errc::not_found, "nope");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::not_found);
}

TEST(ErrcTest, AllNamesDistinct) {
  EXPECT_STREQ(errc_name(Errc::invalid_argument), "invalid_argument");
  EXPECT_STREQ(errc_name(Errc::not_found), "not_found");
  EXPECT_STREQ(errc_name(Errc::already_exists), "already_exists");
  EXPECT_STREQ(errc_name(Errc::corrupt), "corrupt");
  EXPECT_STREQ(errc_name(Errc::unsupported), "unsupported");
  EXPECT_STREQ(errc_name(Errc::failed), "failed");
}

// ---- SHA-256 -----------------------------------------------------------------

TEST(Sha256Test, KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(Sha256::hex_digest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::hex_digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::hex_digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::hex_digest(input),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog, repeatedly";
  Sha256 hasher;
  // Feed in awkward chunk sizes crossing block boundaries.
  for (std::size_t i = 0; i < data.size(); i += 7) {
    hasher.update(data.substr(i, 7));
  }
  auto digest = hasher.finish();
  EXPECT_EQ(to_hex(digest.data(), digest.size()), Sha256::hex_digest(data));
}

TEST(Sha256Test, BlockBoundaryLengths) {
  // 55/56/63/64/65 bytes hit every padding branch.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string data(n, 'x');
    Sha256 hasher;
    hasher.update(data);
    auto digest = hasher.finish();
    EXPECT_EQ(to_hex(digest.data(), digest.size()), Sha256::hex_digest(data)) << n;
  }
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::hex_digest("a"), Sha256::hex_digest("b"));
}

TEST(Sha256Test, DefaultHasherUsesHardwareWhenPresent) {
  const Sha256::Compressor hardware = sha256_detail::hardware_compressor();
  EXPECT_EQ(sha256_detail::selected_compressor(),
            hardware != nullptr ? hardware : &sha256_detail::compress_portable);
}

// ---- SHA-256 block compressors --------------------------------------------------
// Every test drives the full hasher (buffering, padding) through one
// compressor. The portable one is the reference; the hardware one must match
// it byte for byte.

std::string digest_with(Sha256::Compressor compress, std::string_view data) {
  Sha256 hasher(compress);
  hasher.update(data);
  auto digest = hasher.finish();
  return to_hex(digest.data(), digest.size());
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

constexpr const char* kNoShaExtensions =
    "CPU lacks the SHA extensions (CPUID leaf 7 EBX bit 29, SSSE3, SSE4.1) or the "
    "build is not x86";

class Sha256PathTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) {
      compress_ = &sha256_detail::compress_portable;
      return;
    }
    compress_ = sha256_detail::hardware_compressor();
    if (compress_ == nullptr) {
      GTEST_SKIP() << kNoShaExtensions;
    }
  }
  Sha256::Compressor compress_ = nullptr;
};

TEST_P(Sha256PathTest, FipsVectors) {
  EXPECT_EQ(digest_with(compress_, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(compress_, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_with(compress_, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(compress_,
                        "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                        "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(digest_with(compress_, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256PathTest, IncrementalSplitsMatchOneShot) {
  const std::vector<std::uint8_t> input = random_bytes(200, 7);
  const std::string_view data = as_view(input);
  const std::string expected = digest_with(&sha256_detail::compress_portable, data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 hasher(compress_);
    hasher.update(data.substr(0, split));
    hasher.update(data.substr(split));
    auto digest = hasher.finish();
    EXPECT_EQ(to_hex(digest.data(), digest.size()), expected) << "split at " << split;
  }
  Sha256 bytewise(compress_);
  for (char byte : data) bytewise.update(&byte, 1);
  auto digest = bytewise.finish();
  EXPECT_EQ(to_hex(digest.data(), digest.size()), expected);
}

INSTANTIATE_TEST_SUITE_P(Paths, Sha256PathTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "hardware" : "portable");
                         });

TEST(Sha256HardwareTest, MatchesPortableOnEveryLengthTo300) {
  const Sha256::Compressor hardware = sha256_detail::hardware_compressor();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  const std::vector<std::uint8_t> source = random_bytes(300, 11);
  for (std::size_t n = 0; n <= source.size(); ++n) {
    // An exact-size heap copy, so AddressSanitizer sees any read past the end.
    const std::vector<std::uint8_t> input(source.begin(), source.begin() + n);
    EXPECT_EQ(digest_with(hardware, as_view(input)),
              digest_with(&sha256_detail::compress_portable, as_view(input)))
        << "length " << n;
  }
}

TEST(Sha256HardwareTest, MatchesPortableOnMultiMegabyteInputs) {
  const Sha256::Compressor hardware = sha256_detail::hardware_compressor();
  if (hardware == nullptr) GTEST_SKIP() << kNoShaExtensions;
  std::uint64_t seed = 100;
  for (std::size_t size : {(1u << 20) + 13u, (3u << 20) - 1u, (4u << 20) + 64u}) {
    const std::vector<std::uint8_t> input = random_bytes(size, ++seed);
    EXPECT_EQ(digest_with(hardware, as_view(input)),
              digest_with(&sha256_detail::compress_portable, as_view(input)))
        << "size " << size;
  }
}

// ---- strings ------------------------------------------------------------------

TEST(StringsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitWhitespaceSkipsRuns) {
  EXPECT_EQ(split_whitespace("  a \t b\n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
  EXPECT_TRUE(split_whitespace("").empty());
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsEndsContains) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(contains("foobar", "oba"));
  EXPECT_FALSE(contains("foobar", "xyz"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("none here", "xyz", "!"), "none here");
  EXPECT_EQ(replace_all("x", "", "!"), "x");  // empty needle is a no-op
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
}

TEST(PathsTest, NormalizeCollapses) {
  EXPECT_EQ(normalize_path("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(normalize_path("/a/b/../c"), "/a/c");
  EXPECT_EQ(normalize_path("/../x"), "/x");  // lexical: .. above root drops
  EXPECT_EQ(normalize_path("a/../../b"), "../b");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path(""), ".");
  EXPECT_EQ(normalize_path("./"), ".");
}

TEST(PathsTest, Join) {
  EXPECT_EQ(path_join("/usr", "bin"), "/usr/bin");
  EXPECT_EQ(path_join("/usr/", "/etc"), "/etc");  // absolute tail wins
  EXPECT_EQ(path_join("/a/b", "../c"), "/a/c");
  EXPECT_EQ(path_join("", "x"), "x");
}

TEST(PathsTest, DirnameBasename) {
  EXPECT_EQ(path_dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(path_dirname("/x"), "/");
  EXPECT_EQ(path_dirname("plain"), ".");
  EXPECT_EQ(path_basename("/a/b/c"), "c");
  EXPECT_EQ(path_basename("/"), "/");
  EXPECT_EQ(path_basename("plain"), "plain");
}

TEST(PathsTest, Extension) {
  EXPECT_EQ(path_extension("a/b.c.o"), ".o");
  EXPECT_EQ(path_extension("noext"), "");
  EXPECT_EQ(path_extension("/.hidden"), "");  // leading dot is not an extension
  EXPECT_EQ(path_extension("x.tar"), ".tar");
}

// ---- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, UnarmedSiteAlwaysSucceeds) {
  support::FaultInjector faults;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(faults.check("quiet").ok());
  EXPECT_EQ(faults.calls("quiet"), 5u);
  EXPECT_EQ(faults.injected("quiet"), 0u);
  EXPECT_EQ(faults.calls("never-touched"), 0u);
}

TEST(FaultInjectorTest, FailNextFiresExactlyNTimes) {
  support::FaultInjector faults;
  faults.fail_next("pull", 2);
  auto first = faults.check("pull");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, Errc::failed);
  EXPECT_NE(first.error().message.find("pull"), std::string::npos);
  EXPECT_FALSE(faults.check("pull").ok());
  EXPECT_TRUE(faults.check("pull").ok());
  EXPECT_TRUE(faults.check("pull").ok());
  EXPECT_EQ(faults.injected("pull"), 2u);
}

TEST(FaultInjectorTest, FailEveryIsPeriodicFromArming) {
  support::FaultInjector faults;
  EXPECT_TRUE(faults.check("job").ok());  // pre-arming calls don't count
  faults.fail_every("job", 3);
  std::vector<bool> outcomes;
  for (int i = 0; i < 9; ++i) outcomes.push_back(faults.check("job").ok());
  // Calls 3, 6, 9 after arming fail.
  EXPECT_EQ(outcomes, (std::vector<bool>{true, true, false, true, true, false,
                                         true, true, false}));
  EXPECT_EQ(faults.injected("job"), 3u);
}

TEST(FaultInjectorTest, CustomCodeAndMessage) {
  support::FaultInjector faults;
  faults.fail_next("net", 1, Errc::corrupt, "checksum mismatch");
  auto status = faults.check("net");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::corrupt);
  EXPECT_NE(status.error().message.find("checksum mismatch"), std::string::npos);
}

TEST(FaultInjectorTest, SitesAreIndependentAndClearable) {
  support::FaultInjector faults;
  faults.fail_next("a", 100);
  faults.fail_every("b", 1);
  EXPECT_TRUE(faults.check("c").ok());  // other sites don't advance a/b
  EXPECT_FALSE(faults.check("a").ok());
  EXPECT_FALSE(faults.check("b").ok());
  faults.clear("a");
  EXPECT_TRUE(faults.check("a").ok());
  faults.clear_all();
  EXPECT_TRUE(faults.check("b").ok());
  EXPECT_EQ(faults.total_injected(), 2u);
}

TEST(FaultInjectorTest, CrashNextThrowsOnceThenDisarms) {
  support::FaultInjector faults;
  faults.check_crash("boot");  // unarmed: no throw
  faults.crash_next("boot");
  bool crashed = false;
  try {
    faults.check_crash("boot");
  } catch (const support::CrashInjected& crash) {
    crashed = true;
    EXPECT_EQ(crash.site, "boot");
    EXPECT_EQ(crash.call, 2u);
  }
  EXPECT_TRUE(crashed);
  // The schedule was consumed: a resumed run passes the same site.
  faults.check_crash("boot");
  EXPECT_EQ(faults.injected("boot"), 1u);
  EXPECT_EQ(faults.calls("boot"), 3u);
}

TEST(FaultInjectorTest, CrashAtTargetsTheNthLifetimeCall) {
  support::FaultInjector faults;
  faults.crash_at("job", 3);
  faults.check_crash("job");
  faults.check_crash("job");
  EXPECT_THROW(faults.check_crash("job"), support::CrashInjected);
  faults.check_crash("job");  // consumed
  faults.crash_at("job", 0);  // 0 disarms (already consumed; must not rearm)
  faults.check_crash("job");
  EXPECT_EQ(faults.injected("job"), 1u);
}

TEST(FaultInjectorTest, TornWriteKeepsAProperPrefix) {
  support::FaultInjector faults;
  EXPECT_EQ(faults.check_torn("disk", 100), std::nullopt);  // unarmed
  faults.tear_next("disk", 0.5);
  auto keep = faults.check_torn("disk", 100);
  ASSERT_TRUE(keep.has_value());
  EXPECT_EQ(*keep, 50u);
  EXPECT_EQ(faults.check_torn("disk", 100), std::nullopt);  // consumed

  // The kept prefix is always strictly shorter than the write, even at
  // fraction 1.0 — a torn write that persists everything is not torn.
  faults.tear_next("disk", 1.0);
  auto clamped = faults.check_torn("disk", 4);
  ASSERT_TRUE(clamped.has_value());
  EXPECT_EQ(*clamped, 3u);
  faults.tear_next("disk", 0.9);
  auto tiny = faults.check_torn("disk", 1);
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(*tiny, 0u);
}

TEST(FaultInjectorTest, TearAtAndClearDisarmCrashSchedules) {
  support::FaultInjector faults;
  faults.tear_at("disk", 2, 0.25);
  EXPECT_EQ(faults.check_torn("disk", 8), std::nullopt);
  auto keep = faults.check_torn("disk", 8);
  ASSERT_TRUE(keep.has_value());
  EXPECT_EQ(*keep, 2u);

  faults.crash_next("disk");
  faults.tear_next("disk");
  faults.clear("disk");
  faults.check_crash("disk");
  EXPECT_EQ(faults.check_torn("disk", 8), std::nullopt);
}

TEST(FaultInjectorTest, SiteCountsEnumerateEveryTouchedSite) {
  support::FaultInjector faults;
  EXPECT_TRUE(faults.site_counts().empty());

  faults.fail_next("remote.put", 1);
  (void)faults.check("remote.put");   // injected
  (void)faults.check("remote.put");   // clean
  (void)faults.check("remote.get");   // unarmed site still counted
  (void)faults.check("remote.get");

  auto counts = faults.site_counts();
  ASSERT_EQ(counts.size(), 2u);
  // Sorted by site name, so chaos tests can assert positionally.
  EXPECT_EQ(counts[0], (support::FaultInjector::SiteCount{"remote.get", 2, 0}));
  EXPECT_EQ(counts[1], (support::FaultInjector::SiteCount{"remote.put", 2, 1}));
}

TEST(FaultInjectorTest, ConcurrentChecksCountEveryCall) {
  support::FaultInjector faults;
  faults.fail_every("hot", 4);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&faults] {
      for (int i = 0; i < kCallsPerThread; ++i) (void)faults.check("hot");
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(faults.calls("hot"), static_cast<std::uint64_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(faults.injected("hot"), static_cast<std::uint64_t>(kThreads * kCallsPerThread / 4));
}

}  // namespace
}  // namespace comt
