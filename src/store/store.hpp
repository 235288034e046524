// The unified storage substrate: one key→bytes interface under every
// persistence layer in the tree. OCI layouts keep their blobs in it, the
// write-ahead JournalStore persists journals through it, and the compile
// cache serializes entries into it — so "restart the service over the same
// store" is one concept, not three.
//
// Two backends ship:
//  - MemStore: a mutex-guarded map of immutable shared buffers. The default
//    everywhere; copying one shares every value instead of copying bytes.
//  - DiskStore (disk.hpp): a real directory with atomic write-rename puts,
//    fsync-on-sync, and the journal's fnv1a64 framing for torn-write
//    detection.
//
// Backends are thread-safe. Observability (set_observer) and fault injection
// (set_fault_injector) are wired before a store is shared, like every other
// module in the tree.
//
// wait_change is the one blocking primitive: a caller that read a key blocks
// until a write replaces what it read. MemStore and DiskStore keep their
// watchers per key, so a write wakes only the watchers of the key it wrote;
// RemoteStore forwards the watch to the store it wraps.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace comt::store {

/// Torn-write injection site checked on every KvStore put.
inline constexpr std::string_view kStorePutSite = "store.put";

/// One listed key and its value size in bytes.
struct KvEntry {
  std::string key;
  std::uint64_t size = 0;

  bool operator==(const KvEntry&) const = default;
};

/// Abstract key→bytes store. Keys are arbitrary non-empty byte strings; '/'
/// separates hierarchy levels (DiskStore maps them to directories, list()
/// prefixes usually end in '/'). Values are opaque bytes.
class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Value stored under `key`, Errc::not_found when absent, Errc::corrupt
  /// when the backend detects the stored bytes were damaged (torn frame,
  /// checksum mismatch).
  virtual Result<std::string> get(std::string_view key) const = 0;

  /// Stores (or replaces) `key`. With an armed torn-write schedule at
  /// kStorePutSite the backend persists only a prefix and throws
  /// support::CrashInjected — the next get() of the key reports corruption.
  virtual Status put(std::string_view key, std::string value) = 0;

  /// get() as an immutable shared buffer. MemStore hands over the buffer it
  /// stores; other backends read the bytes into a fresh one.
  virtual Result<std::shared_ptr<const std::string>> get_shared(std::string_view key) const;

  /// put() of an immutable shared buffer. MemStore stores the buffer itself
  /// (no copy); other backends write its bytes. Torn-write injection as put.
  virtual Status put_shared(std::string_view key, std::shared_ptr<const std::string> value);

  /// Drops `key`. Removing an absent key succeeds (erase is idempotent —
  /// crash-retry loops re-erase freely).
  virtual Status erase(std::string_view key) = 0;

  virtual bool contains(std::string_view key) const = 0;

  /// Stored value size in bytes, Errc::not_found when absent.
  virtual Result<std::uint64_t> size(std::string_view key) const = 0;

  /// Every key starting with `prefix` (all keys when empty), sorted.
  virtual std::vector<KvEntry> list(std::string_view prefix = {}) const = 0;

  /// Flushes everything written so far to durable media. MemStore: no-op.
  /// DiskStore: fsync of every file written since the last sync.
  virtual Status sync() = 0;

  /// Atomic read-modify-write, the primitive the fleet's lease protocol is
  /// built on: replaces `key`'s value with `value` iff the current value
  /// equals `expected` — or the key is absent (or stored corrupt: a torn
  /// lease record must stay claimable) when `expected` is nullopt.
  /// Returns true when the swap happened, false when the current state did
  /// not match (the loser of a claim race). Atomicity is relative to other
  /// compare_and_put calls on the same store object (a lease keyspace has no
  /// other writers); a concurrent plain put() does not participate in the
  /// arbitration.
  virtual Result<bool> compare_and_put(std::string_view key,
                                       const std::optional<std::string>& expected,
                                       std::string value);

  /// Blocks until the value under `key` is no longer `seen` (nullopt:
  /// absent) or until `deadline`, and returns whether it changed. Returns
  /// true at once when the value already differs, so a write landing
  /// between the caller's read and its wait is never lost. A put of
  /// identical bytes is no change; a put of other bytes, an erase and a torn
  /// put are. The watch sees writes made through this store object (or, for
  /// a wrapper, through the store it wraps); it costs no get and bumps no
  /// "store.gets". Errors are the backend's read errors — a caller treats
  /// them like a failed get, never as a reason to retry at once.
  virtual Result<bool> wait_change(std::string_view key,
                                   const std::optional<std::string>& seen,
                                   std::chrono::steady_clock::time_point deadline) const = 0;

  /// Attaches counters ("store.gets", "store.get_bytes", "store.puts",
  /// "store.put_bytes", "store.erases", "store.syncs", "store.corrupt",
  /// "store.watch_wakes": wait_change callers a write notified) and a span
  /// per sync ("store.sync"). Pass nullptrs to detach. Wire up before
  /// sharing the store. Virtual so a wrapping backend (RemoteStore) can bind
  /// its own instruments alongside the base set.
  virtual void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Attaches torn-write injection to put (site kStorePutSite). Pass nullptr
  /// to detach. Wire up before sharing the store.
  void set_fault_injector(support::FaultInjector* faults) { faults_ = faults; }

 protected:
  void note_get(std::uint64_t bytes) const {
    if (gets_ != nullptr) {
      gets_->add();
      get_bytes_->add(bytes);
    }
  }
  void note_put(std::uint64_t bytes) const {
    if (puts_ != nullptr) {
      puts_->add();
      put_bytes_->add(bytes);
    }
  }
  void note_erase() const {
    if (erases_ != nullptr) erases_->add();
  }
  void note_corrupt() const {
    if (corrupt_ != nullptr) corrupt_->add();
  }
  void note_sync() const {
    if (syncs_ != nullptr) syncs_->add();
  }
  void note_wakes(std::size_t watchers) const {
    if (watch_wakes_ != nullptr && watchers != 0) watch_wakes_->add(watchers);
  }
  /// "store.sync" span, or an inert one when no tracer is attached.
  obs::Span sync_span() const;
  support::FaultInjector* faults() const { return faults_; }

 private:
  support::FaultInjector* faults_ = nullptr;
  mutable std::mutex cas_mutex_;  ///< serializes compare_and_put arbitration
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* gets_ = nullptr;
  obs::Counter* get_bytes_ = nullptr;
  obs::Counter* puts_ = nullptr;
  obs::Counter* put_bytes_ = nullptr;
  obs::Counter* erases_ = nullptr;
  obs::Counter* syncs_ = nullptr;
  obs::Counter* corrupt_ = nullptr;
  obs::Counter* watch_wakes_ = nullptr;
};

namespace detail {

/// The wait_change watchers of one store, one condition variable per watched
/// key. Guarded by the owning store's mutex: every member function runs with
/// that mutex held (wait() through `lock`), so a write and its notify() are
/// one step for a watcher that checks the value under the same mutex.
class KeyWatchers {
 public:
  /// Waits on `lock` until `changed()` holds or `deadline` passes; returns
  /// the last evaluation. `changed` runs under the lock, at entry and after
  /// each notify() of `key`.
  template <typename Changed>
  bool wait(std::unique_lock<std::mutex>& lock, std::string_view key,
            std::chrono::steady_clock::time_point deadline, Changed changed) {
    if (changed()) return true;
    auto it = watches_.try_emplace(std::string(key)).first;
    ++it->second.waiters;
    const bool result = it->second.cv.wait_until(lock, deadline, changed);
    if (--it->second.waiters == 0) watches_.erase(it);
    return result;
  }

  /// Wakes every watcher of `key`; returns how many. A key nobody watches
  /// costs one lookup.
  std::size_t notify(std::string_view key) {
    if (watches_.empty()) return 0;
    auto it = watches_.find(key);
    if (it == watches_.end()) return 0;
    it->second.cv.notify_all();
    return it->second.waiters;
  }

 private:
  struct Watch {
    std::condition_variable cv;
    std::size_t waiters = 0;
  };
  std::map<std::string, Watch, std::less<>> watches_;
};

}  // namespace detail

/// The in-memory backend: a mutex-guarded ordered map. Each value is an
/// immutable shared buffer, so a copy of the store costs one pointer per key:
/// the copy shares the source's buffers, and a put on either side replaces
/// its own buffer, invisible to the other. get() still returns a copy of the
/// bytes; get_shared()/put_shared() hand buffers over without one. A copy
/// starts with no observer, no fault injector and no watchers.
class MemStore final : public KvStore {
 public:
  MemStore() = default;
  MemStore(const MemStore& other);

  Result<std::string> get(std::string_view key) const override;
  Status put(std::string_view key, std::string value) override;
  Result<std::shared_ptr<const std::string>> get_shared(std::string_view key) const override;
  Status put_shared(std::string_view key, std::shared_ptr<const std::string> value) override;
  Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override;
  Result<std::uint64_t> size(std::string_view key) const override;
  std::vector<KvEntry> list(std::string_view prefix = {}) const override;
  Status sync() override;
  Result<bool> wait_change(std::string_view key, const std::optional<std::string>& seen,
                           std::chrono::steady_clock::time_point deadline) const override;

 private:
  /// Wakes the watchers of `key`. Called with mutex_ held, after the write.
  void notify_locked(std::string_view key) const { note_wakes(watchers_.notify(key)); }

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const std::string>, std::less<>> entries_;
  mutable detail::KeyWatchers watchers_;
};

}  // namespace comt::store
