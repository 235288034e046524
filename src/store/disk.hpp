// Directory-backed KvStore.
//
// Each key maps to one file under the root: '/' in the key is a directory
// separator, every other byte outside [A-Za-z0-9._+-] is percent-encoded, so
// arbitrary keys (journal keys carry ':' and '|') round-trip through any
// POSIX filesystem. Puts are atomic — write to a temp file under
// <root>/.tmp, then rename over the final path — so readers never observe a
// half-written value and a crash leaves at worst an orphan temp file.
//
// Two framing modes:
//  - framed (default): values are stored as [u32 size][u64 fnv1a64][bytes],
//    the write-ahead journal's record convention, so a torn or bit-flipped
//    file is detected on get() and reported as Errc::corrupt instead of
//    handing damaged bytes to the caller.
//  - unframed: raw bytes on disk. Used where the on-disk format is fixed by
//    an external spec — the OCI image layout, whose blobs are verified by
//    their SHA-256 content address instead.
//
// sync() fsyncs every file written since the last sync (and its directory),
// the durability point a production deployment would place after a batch of
// writes.
//
// wait_change is woken by writes made through this DiskStore object. Another
// process (or another DiskStore object) writing the same directory notifies
// nobody here: its write is seen only when the watch reaches its deadline.
#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <string_view>

#include "store/store.hpp"

namespace comt::store {

class DiskStore final : public KvStore {
 public:
  struct Options {
    /// Frame values with the journal's [u32 size][u64 fnv1a64] header for
    /// torn-write detection. Disable only for externally specified formats
    /// (OCI layout directories) that carry their own integrity story.
    bool framed = true;
  };

  /// Binds to `root`. The directory is created lazily on the first put, so
  /// opening a store read-only on a missing directory has no side effects.
  explicit DiskStore(std::string root);
  DiskStore(std::string root, Options options);

  Result<std::string> get(std::string_view key) const override;
  Status put(std::string_view key, std::string value) override;
  Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override;
  Result<std::uint64_t> size(std::string_view key) const override;
  std::vector<KvEntry> list(std::string_view prefix = {}) const override;
  Status sync() override;
  Result<bool> wait_change(std::string_view key, const std::optional<std::string>& seen,
                           std::chrono::steady_clock::time_point deadline) const override;

  const std::string& root() const { return root_; }
  bool framed() const { return options_.framed; }

 private:
  Result<std::filesystem::path> key_path(std::string_view key) const;
  /// The stored value at `path`, unframed and verified; counts nothing.
  Result<std::string> read_value(const std::filesystem::path& path, std::string_view key) const;
  Status write_atomic(const std::filesystem::path& path, std::string_view bytes);
  /// Wakes the watchers of `key` after a write that changed its file.
  void notify(std::string_view key);

  std::string root_;
  Options options_;
  mutable std::mutex mutex_;  ///< guards dirty_, temp_seq_ and watchers_
  std::set<std::string> dirty_;  ///< files written since the last sync()
  std::uint64_t temp_seq_ = 0;
  mutable detail::KeyWatchers watchers_;
};

}  // namespace comt::store
