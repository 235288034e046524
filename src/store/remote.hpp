// Simulated remote object store (S3-dialect / registry-backed): wraps any
// KvStore the way a site deployment fronts its shared substrate with an
// object-store endpoint. The wrapper models the three things a network hop
// adds that a local backend never shows:
//
//  - latency: every get/put sleeps a configurable per-op delay before
//    touching the inner store, so benches measure coordination under
//    realistic transfer times instead of memory-speed fantasy numbers;
//  - transient faults: get/put pass through FaultInjector sites
//    ("remote.get"/"remote.put") and retry injected failures up to
//    max_attempts with exponential backoff — the client-side retry loop
//    every S3 SDK ships. Retries are counted ("store.remote.retries");
//  - torn transfers: an upload can die mid-flight (tear_next at
//    "remote.put"), leaving a truncated object. Values are framed
//    [u32 size][u64 fnv1a64] on the wire, so a later get() of the torn key
//    reports Errc::corrupt instead of silently returning half an image —
//    the ETag/checksum verification a real object store performs.
//
// An optional circuit breaker (Options::breaker_threshold) guards the whole
// endpoint: once that many consecutive operations exhaust their retries, the
// breaker opens and further get/put calls fail fast without burning latency
// and backoff against a dead endpoint. After breaker_cooldown one probe is
// let through (half-open); its outcome closes the breaker or re-opens it for
// another cooldown. Transitions and fast-fails land in
// "store.remote.breaker.*" metrics and "remote.breaker" spans.
//
// compare_and_put is inherited from KvStore and therefore runs through this
// wrapper's latency/fault-instrumented get/put; arbitration holds across
// every replica sharing this object, which is how the fleet deploys it.
//
// wait_change is a long-poll GET: it passes breaker admission and the
// "remote.get" fault site, sleeps one get_latency, then forwards the watch to
// the inner store with `seen` framed the way the inner store holds it. So a
// write through any wrapper over the same inner store, or straight to the
// inner store, ends the watch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/store.hpp"

namespace comt::store {

/// Transient-fault + torn-transfer injection sites for RemoteStore downloads
/// and uploads.
inline constexpr std::string_view kRemoteGetSite = "remote.get";
inline constexpr std::string_view kRemotePutSite = "remote.put";

class RemoteStore final : public KvStore {
 public:
  struct Options {
    /// Simulated one-way transfer latency, slept before each download/upload
    /// attempt. Zero skips the sleep entirely.
    std::chrono::microseconds get_latency{0};
    std::chrono::microseconds put_latency{0};
    /// Total tries per operation (first attempt + retries); clamped to >= 1.
    int max_attempts = 3;
    /// Backoff before retry k is `backoff << (k-1)` — the standard
    /// exponential client retry policy. Zero retries immediately.
    std::chrono::microseconds backoff{0};
    /// Circuit breaker: consecutive retry-exhausted operations that trip the
    /// breaker open. 0 disables the breaker (the default).
    int breaker_threshold = 0;
    /// How long an open breaker fails fast before admitting one half-open
    /// probe.
    std::chrono::microseconds breaker_cooldown{1000};
  };

  /// Breaker position. closed = normal service; open = failing fast;
  /// half_open = one probe in flight deciding between the two.
  enum class BreakerState { closed, open, half_open };

  RemoteStore(std::shared_ptr<KvStore> inner, Options options);
  explicit RemoteStore(std::shared_ptr<KvStore> inner)
      : RemoteStore(std::move(inner), Options{}) {}

  Result<std::string> get(std::string_view key) const override;
  Status put(std::string_view key, std::string value) override;
  Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override;
  /// Logical (unframed) value size — what get() would return.
  Result<std::uint64_t> size(std::string_view key) const override;
  std::vector<KvEntry> list(std::string_view prefix = {}) const override;
  Status sync() override;
  Result<bool> wait_change(std::string_view key, const std::optional<std::string>& seen,
                           std::chrono::steady_clock::time_point deadline) const override;

  /// Base observer plus "store.remote.retries" (transient faults absorbed by
  /// the retry loop).
  void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) override;

  /// Transient faults retried away over this store's lifetime.
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

  // Wire-vs-logical byte accounting. Wire bytes are what actually crossed the
  // simulated network: the framed value once per attempt (a failed attempt
  // re-sends the whole object; a torn upload counts the prefix the endpoint
  // kept). Logical bytes count each successful operation's unframed value
  // exactly once — what a caller would naively assume "bytes" means. The
  // "store.get_bytes"/"store.put_bytes" metrics report wire traffic;
  // "store.remote.logical_get_bytes"/"store.remote.logical_put_bytes" report
  // the logical view.
  std::uint64_t wire_get_bytes() const {
    return wire_get_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t wire_put_bytes() const {
    return wire_put_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t logical_get_bytes() const {
    return logical_get_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t logical_put_bytes() const {
    return logical_put_bytes_.load(std::memory_order_relaxed);
  }

  /// Current breaker position (always closed when the breaker is disabled).
  BreakerState breaker_state() const;
  /// Operations rejected fast while the breaker was open.
  std::uint64_t breaker_fast_fails() const {
    return fast_fails_.load(std::memory_order_relaxed);
  }

 private:
  /// Wire frame: [u32 size][u64 fnv1a64(value)][value bytes].
  static constexpr std::size_t kFrameHeader = 12;
  static std::string frame(std::string_view value);
  Result<std::string> unframe(std::string_view key, std::string framed) const;

  /// Runs the site's fault check with bounded retry/backoff; returns the
  /// last injected error once attempts are exhausted. `attempts`, when
  /// non-null, receives the number of transfer attempts made (1 with no
  /// injector attached).
  Status checked_attempts(std::string_view site, int* attempts = nullptr) const;
  void note_retry() const;
  void note_wire_get(std::uint64_t bytes) const;
  void note_wire_put(std::uint64_t bytes) const;

  /// Breaker admission gate for one operation. Fails fast when the breaker
  /// is open (and the cooldown has not lapsed); otherwise admits and, in
  /// half-open, marks this caller as the probe.
  Status breaker_admit(std::string_view op) const;
  /// Reports the admitted operation's outcome back into the state machine.
  void breaker_record(bool ok) const;
  void breaker_transition_locked(BreakerState next, std::string_view why) const;

  std::shared_ptr<KvStore> inner_;
  Options options_;
  mutable std::atomic<std::uint64_t> retries_{0};  ///< bumped from const get()
  mutable std::atomic<std::uint64_t> wire_get_bytes_{0};
  mutable std::atomic<std::uint64_t> wire_put_bytes_{0};
  mutable std::atomic<std::uint64_t> logical_get_bytes_{0};
  mutable std::atomic<std::uint64_t> logical_put_bytes_{0};
  obs::Counter* retry_counter_ = nullptr;
  obs::Counter* logical_get_counter_ = nullptr;
  obs::Counter* logical_put_counter_ = nullptr;

  mutable std::mutex breaker_mutex_;
  mutable BreakerState state_ = BreakerState::closed;
  mutable int consecutive_failures_ = 0;
  mutable std::chrono::steady_clock::time_point opened_at_{};
  mutable bool probe_in_flight_ = false;
  mutable std::atomic<std::uint64_t> fast_fails_{0};
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* breaker_opens_ = nullptr;
  obs::Counter* breaker_closes_ = nullptr;
  obs::Counter* breaker_fast_fail_counter_ = nullptr;
};

}  // namespace comt::store
