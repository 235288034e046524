// Content-addressed compile cache for the rebuild engine.
//
// Works like ccache's "direct mode": the key digest is computed from
// everything that selects the computation — toolchain id, target ISA, working
// directory, and the exact argument vector — and each entry carries a
// manifest of the input files (path → content sha256) observed when the
// entry was stored. A lookup only hits when every manifest input still has
// the same digest, so a changed header or source transparently misses and
// recompiles. Entries store the produced output blobs, so a hit replays the
// outputs without running the toolchain at all.
//
// Concurrency: one std::shared_mutex over a plain std::map of immutable,
// refcounted entries. lookup() — hit by every compile job of a warm rebuild
// — holds it shared only to copy one entry pointer and verifies the manifest
// with no lock held; store(), attach() and the adoption of a backing-store
// entry hold it exclusive. A lookup racing a store() of the same key sees
// the old or the new entry, and either is immutable. docs/PERFORMANCE.md §1
// records the 4-thread measurement that chose this over lock-free snapshots.
//
// attach() bolts the cache onto a store::KvStore: every store() writes the
// entry through under "cache/<key digest>" and attach itself hydrates the
// entries the backing already holds, so a cache over a DiskStore directory
// starts warm in the next process. A persisted entry whose checksum fails
// deserialization is dropped (degrades to a miss, never to a wrong hit).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace comt::sched {

/// Key prefix an attached CompileCache persists entries under.
inline constexpr std::string_view kCacheKeyPrefix = "cache/";

/// Everything that identifies a compile computation, before inputs are read.
struct CacheKey {
  std::string toolchain_id;       ///< which simulated toolchain runs
  std::string target_arch;        ///< target ISA the driver lowers to
  std::string cwd;                ///< directory relative paths resolve in
  std::vector<std::string> argv;  ///< full rendered command line

  /// Stable sha256 over all four fields (length-prefixed so field
  /// boundaries can't collide).
  std::string digest() const;
};

/// One output blob a cached job produced.
struct CachedOutput {
  std::string path;     ///< absolute path inside the rebuild rootfs
  std::string content;  ///< full file content
  std::uint32_t mode = 0644;
};

/// A stored computation: the inputs it read (with their digests at store
/// time) and the outputs it wrote.
struct CacheEntry {
  /// Input path → sha256 at the time the entry was stored. Verified on
  /// lookup; any mismatch (or unreadable input) is a miss.
  std::map<std::string, std::string> input_digests;
  std::vector<CachedOutput> outputs;
};

/// Hit/miss/store counters for one cache over its lifetime. A consistent
/// point-in-time snapshot taken by stats().
struct CacheStats {
  std::uint64_t hits = 0;            ///< lookups whose manifest fully verified
  std::uint64_t misses = 0;          ///< absent key or stale manifest input
  std::uint64_t stores = 0;          ///< store() calls (inserts and replacements)
  std::uint64_t hydrated = 0;        ///< entries recovered from the backing store
  std::uint64_t corrupt_dropped = 0; ///< persisted entries rejected at hydration
  std::uint64_t remote_hits = 0;     ///< hits served via the backing-store fallback
};

/// Thread-safe in-memory compile cache shared by all jobs of a rebuild (and
/// across rebuilds, when the caller keeps it alive). Lookups share one
/// reader-writer lock; store/attach take it exclusive.
class CompileCache {
 public:
  /// Returns the current digest of `path` in the caller's filesystem, or an
  /// empty string when the file can't be read.
  using DigestFn = std::function<std::string(const std::string& path)>;

  /// Looks up `key_digest`. On a candidate entry, re-digests every manifest
  /// input through `digest_of`; the entry only hits when all match. Returns
  /// the entry on a hit, nullptr on a miss. Counts one hit or one miss.
  /// The entry map's lock is held shared only while the candidate is found;
  /// `digest_of` runs with no lock held.
  ///
  /// When attached, a local miss — an absent key or a stale manifest — falls
  /// back to the backing store before giving up: an intact persisted entry
  /// (stored by another replica sharing the backing, or by a store() this
  /// process has not re-read) whose manifest verifies is adopted into the
  /// local map and served as a hit — counted separately as
  /// CacheStats::remote_hits. This is what makes one replica's compile warm
  /// every other replica in a fleet without re-attaching, including after a
  /// source change another replica already compiled.
  std::shared_ptr<const CacheEntry> lookup(const std::string& key_digest,
                                           const DigestFn& digest_of) const;

  /// Stores (or replaces) the entry for `key_digest`. Counts one store.
  /// When attached, the entry also writes through to the backing store.
  /// Takes the lock exclusive; safe against concurrent lookups and stores.
  void store(const std::string& key_digest, CacheEntry entry);

  /// Backs the cache with `backing` under `prefix`: hydrates every intact
  /// persisted entry (counting CacheStats::hydrated), erases and counts
  /// corrupt ones (CacheStats::corrupt_dropped), and writes every future
  /// store() through. Call before sharing the cache. Returns the number of
  /// entries hydrated. Passing nullptr detaches.
  std::size_t attach(std::shared_ptr<store::KvStore> backing,
                     std::string prefix = std::string(kCacheKeyPrefix));

  /// Attaches counters ("compile_cache.hits", "compile_cache.misses",
  /// "compile_cache.inserts", "compile_cache.hydrated",
  /// "compile_cache.corrupt_dropped", "compile_cache.remote_hits"). Pass
  /// nullptr to detach. Safe to call
  /// while lookups run (the instrument pointers are atomic), though counts
  /// bumped before the attach are not replayed into the registry.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Point-in-time counter snapshot (atomic reads, no lock).
  CacheStats stats() const;

  /// Entries currently held.
  std::size_t size() const;

 private:
  /// Fetches and checksum-verifies the persisted entry under `key_digest`;
  /// nullptr when the cache is detached or the backing has no intact copy.
  /// Does not verify the manifest and does not adopt.
  std::shared_ptr<const CacheEntry> fetch_remote(const std::string& key_digest) const;

  // mutex_ guards the three members below. Readers (lookup, size) take it
  // shared; store, attach and adoption take it exclusive. Entries are
  // immutable once inserted. Mutable: lookup() adopts backing-store entries.
  mutable std::shared_mutex mutex_;
  mutable std::map<std::string, std::shared_ptr<const CacheEntry>> entries_;
  std::shared_ptr<store::KvStore> backing_;
  std::string prefix_;

  mutable std::atomic<std::uint64_t> hit_count_{0};
  mutable std::atomic<std::uint64_t> miss_count_{0};
  mutable std::atomic<std::uint64_t> remote_hit_count_{0};
  std::atomic<std::uint64_t> store_count_{0};
  std::atomic<std::uint64_t> hydrated_count_{0};
  std::atomic<std::uint64_t> corrupt_count_{0};

  // Resolved in set_metrics; atomic because lookups read them with no lock.
  mutable std::atomic<obs::Counter*> hits_{nullptr};
  mutable std::atomic<obs::Counter*> misses_{nullptr};
  mutable std::atomic<obs::Counter*> remote_hits_{nullptr};
  std::atomic<obs::Counter*> inserts_{nullptr};
  std::atomic<obs::Counter*> hydrated_{nullptr};
  std::atomic<obs::Counter*> corrupt_dropped_{nullptr};
};

}  // namespace comt::sched
