// Store-backed lease protocol: the arbitration layer that makes N rebuild
// replicas over one shared substrate behave like one logical service.
//
// A replica about to build the job keyed K (extended-image manifest digest +
// target-system fingerprint) first consults two well-known keys in the
// shared store:
//
//   fleet/done/<K>   — the global memo: "name:tag" of the image some replica
//                      already built and pushed for K. Present → reuse, no
//                      toolchain, no lease.
//   fleet/lease/<K>  — the mutual exclusion record: {owner, epoch, deadline}.
//                      Claimed with compare_and_put, so exactly one replica
//                      wins; everyone else watches the record
//                      (KvStore::wait_change) until a write replaces it or
//                      the lease's TTL lapses.
//
// Failure/takeover state machine:
//
//        ┌────────── done marker present ──────────▶ reuse (no build)
//   K ───┤
//        │   CAS claim wins                 build OK: put done marker,
//        ├─────────────────────▶ holder ───────────▶ then erase lease
//        │                        │   build fails: erase lease (no marker)
//        │   lease held, alive    │   crash: lease left to rot
//        └──▶ wait (watch) ◀──────┘
//              │       deadline passed
//              └─────────────────────▶ CAS steal (epoch+1) ──▶ holder
//
// The holder publishes the done marker BEFORE erasing its lease, and a
// claimer re-checks the marker right after winning, so a waiter can never
// slip between "marker not yet visible" and "lease gone" into a duplicate
// build.
//
// A waiter blocks in wait_change on the record bytes it read, until the
// record's deadline or max_wait. The holder's erase is the write that wakes
// it: the waiter then finds the marker, or after a failed build claims. A
// steal rewrites the record and re-arms the other waiters on the thief's.
//
// A crashed holder (injected crash unwinding the worker) releases nothing —
// its record sits in the store until the TTL lapses, the waiters wake at the
// deadline with no write needed, and a rival's CAS bumps the epoch; the
// thief then resumes from the crashed holder's write-ahead journal, the
// same durable path a restarted single service uses.
//
// Records carry an fnv1a64 trailer; a torn record decodes as invalid and is
// claimable like an absent one (compare_and_put treats stored-corrupt as
// absent for the same reason).
//
// Size the TTL above the worst-case build: there is no background renewal,
// so a live build that outlasts its lease can be (harmlessly but wastefully)
// duplicated by a thief.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/store.hpp"
#include "support/error.hpp"

namespace comt::fleet {

/// Shared-store keyspaces the protocol lives in.
inline constexpr std::string_view kLeasePrefix = "fleet/lease/";
inline constexpr std::string_view kDonePrefix = "fleet/done/";

/// One lease record as stored under fleet/lease/<key>.
struct LeaseRecord {
  std::string owner;            ///< replica id holding the lease
  std::uint64_t epoch = 0;      ///< bumped by every steal; guards release
  std::uint64_t deadline_ms = 0;  ///< steady-clock ms when the lease expires

  bool operator==(const LeaseRecord&) const = default;
};

/// Wire form: [str owner][u64 epoch][u64 deadline][u64 fnv1a64(payload)].
std::string encode_lease(const LeaseRecord& record);

/// nullopt on any damage — truncation, trailing garbage, checksum mismatch.
std::optional<LeaseRecord> decode_lease(std::string_view encoded);

/// Steady-clock milliseconds, the protocol's shared clock. All replicas of
/// this in-process fleet read the same clock, mirroring the synchronized
/// clocks a site deployment's lease service assumes.
std::uint64_t lease_now_ms();

/// The fleet's service::FleetCoordinator: one instance per replica, all over
/// the same shared store. Thread-safe (all state lives in the store).
class LeaseCoordinator final : public service::FleetCoordinator {
 public:
  struct Options {
    std::string replica_id;
    /// Lease lifetime. Must exceed the worst-case build (no renewal).
    std::chrono::milliseconds ttl{2000};
    /// acquire() gives up (degrading the caller to an uncoordinated build)
    /// after waiting this long.
    std::chrono::milliseconds max_wait{30000};
  };

  /// `hub`, when non-null, validates done markers before reuse: a marker
  /// whose image no longer resolves is erased and the key rebuilt.
  LeaseCoordinator(std::shared_ptr<store::KvStore> store, registry::Registry* hub,
                   Options options);

  Result<Grant> acquire(const std::string& key, obs::SpanId parent) override;
  void release(const std::string& key, Outcome outcome, const std::string& output,
               std::uint64_t epoch, obs::SpanId parent) override;

  /// Spans "fleet.lease.acquire" (annotated with its grant: claim, steal,
  /// reuse, timeout or error), a child "fleet.lease.wait" per watch
  /// (annotated changed or deadline) and "fleet.lease.release". Counters
  /// "fleet.lease.acquired" (build grants), "fleet.lease.steals",
  /// "fleet.lease.reused" (done-marker grants), "fleet.lease.waits"
  /// (acquires that found a live holder and waited), "fleet.lease.releases",
  /// and gauge "fleet.lease.wait_ms" (summed wait time). Pass nullptrs to
  /// detach. Wire up before sharing.
  void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Current lease record for `key`, nullopt when absent or undecodable —
  /// tests and operators inspecting the protocol state.
  std::optional<LeaseRecord> read_lease(const std::string& key) const;

  /// Current done marker ("name:tag") for `key`, nullopt when absent.
  std::optional<std::string> read_done(const std::string& key) const;

  const std::string& replica_id() const { return options_.replica_id; }

 private:
  /// True when `output` ("name:tag") still resolves in the hub (or no hub
  /// was given to validate against).
  bool output_resolves(const std::string& output) const;
  /// The post-claim marker re-check that closes the marker/lease race; on a
  /// visible marker the fresh lease is dropped and reuse granted instead.
  std::optional<Grant> reuse_after_claim(const std::string& key);
  void note(obs::Counter* counter) const;

  std::shared_ptr<store::KvStore> store_;
  registry::Registry* hub_ = nullptr;
  Options options_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* acquired_ = nullptr;
  obs::Counter* steals_ = nullptr;
  obs::Counter* reused_ = nullptr;
  obs::Counter* waits_ = nullptr;
  obs::Counter* releases_ = nullptr;
  obs::Gauge* wait_ms_ = nullptr;
};

}  // namespace comt::fleet
