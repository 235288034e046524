// The rebuild fleet: N RebuildService replicas over one shared compile
// substrate, coordinated by the store-backed lease protocol (lease.hpp).
//
// This is the deployment step the single service stops short of: a site runs
// several rebuild daemons for capacity and availability, but they must
// behave like one logical service — a given (image, system) compiles once
// fleet-wide, every replica serves the result, and a replica dying mid-build
// must not strand the work. Fleet wires that out of existing parts:
//
//  - one shared KvStore (options.store; a MemStore by default, a
//    RemoteStore in benches and site deployments) holds
//    the compile cache write-through, every write-ahead journal, and the
//    fleet/{lease,done}/ coordination keys;
//  - one shared durable::JournalStore over that store, so a takeover replica
//    opens the crashed holder's journal — same key, same metadata — and
//    replays its committed compile jobs instead of redoing them;
//  - per-replica LeaseCoordinators (same store, distinct replica ids) plug
//    into ServiceOptions::coordinator, extending each service's in-process
//    coalescing into global dedup: concurrent identical submissions across
//    replicas produce exactly one build, the rest reuse or wait;
//  - per-replica compile caches attach to the shared store, so a local miss
//    falls back to entries other replicas already compiled
//    (CacheStats::remote_hits — the cross-replica warm-cache path).
//
// All replicas share one metrics registry (fleet.* + service.* + store.*),
// so FleetStats is a fleet-wide view by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "fleet/lease.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "transfer/chunkstore.hpp"

namespace comt::fleet {

struct FleetOptions {
  /// Service replicas to run. Each gets its own worker pools and compile
  /// cache; everything durable is shared.
  std::size_t replicas = 2;
  /// Per-replica service knobs (see ServiceOptions for semantics).
  std::size_t queue_capacity = 64;
  std::size_t workers_per_system = 1;
  std::size_t rebuild_threads = 1;
  int max_attempts = 3;
  bool sleep_on_backoff = true;
  /// Tenant admission policy, applied to every replica. Note that quotas are
  /// enforced per replica: behind the round-robin balancer a tenant's
  /// effective fleet-wide rate is replicas × its per-replica rate, so divide
  /// accordingly when configuring.
  service::TenantPolicy default_tenant;
  std::map<std::string, service::TenantPolicy> tenants;
  /// Lease protocol timing (see LeaseCoordinator::Options).
  std::chrono::milliseconds lease_ttl{2000};
  std::chrono::milliseconds lease_max_wait{30000};
  /// The shared substrate. A private MemStore when null. Benches hand in a
  /// RemoteStore to put the coordination traffic behind simulated latency.
  std::shared_ptr<store::KvStore> store;
  /// Chunk-dedup image distribution: the fleet builds a transfer::ChunkStore
  /// over the shared store and enables chunk dedup on the hub registry, so
  /// every rebuilt image's push moves only the chunks the substrate does not
  /// already hold (the optimized child dedups against its generic parent).
  /// When the shared store is a RemoteStore, chunk movement rides its
  /// retry/breaker machinery.
  bool chunked_artifacts = false;
  transfer::ChunkerParams chunk_params;
  support::FaultInjector* faults = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Shared across all replicas; a private registry when null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Handle to a submission: which replica took it, and its ticket there.
struct FleetTicket {
  std::size_t replica = 0;
  service::Ticket ticket = 0;
};

/// Fleet-wide counters, read from the shared metrics registry.
struct FleetStats {
  std::uint64_t submitted = 0;      ///< tickets across all replicas
  std::uint64_t coalesced = 0;      ///< in-process coalesces (per replica)
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t throttled = 0;      ///< shed by per-tenant rate quotas
  std::uint64_t crashed = 0;
  std::uint64_t fleet_reused = 0;   ///< jobs served from another replica's result
  std::uint64_t coordinator_errors = 0;
  std::uint64_t leases_acquired = 0;  ///< build grants — fleet-wide distinct builds
  std::uint64_t lease_steals = 0;     ///< takeovers from expired holders
  std::uint64_t lease_waits = 0;      ///< acquires that found a live holder and waited
  double lease_wait_ms = 0;           ///< summed wait time across acquires
  std::uint64_t cache_remote_hits = 0;  ///< compile cache hits via the shared store
  // Chunk-dedup transfer counters (zero unless FleetOptions::chunked_artifacts).
  std::uint64_t transfer_chunks_hit = 0;
  std::uint64_t transfer_chunks_miss = 0;
  std::uint64_t transfer_bytes_moved = 0;    ///< wire bytes delta pushes moved
  std::uint64_t transfer_bytes_deduped = 0;  ///< raw bytes reused chunks covered
};

class Fleet {
 public:
  Fleet(registry::Registry& hub, FleetOptions options = {});

  /// Drains every replica.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Registers the tenant target on every replica (each replica gets its own
  /// copy and unpacks its own Sysenv, as separate daemons would). Register
  /// before submitting.
  Status add_system(const std::string& fingerprint, const service::TargetSystem& target);

  /// Round-robin submission across replicas — the load balancer in front of
  /// a real fleet.
  Result<FleetTicket> submit(const service::SubmitRequest& request);

  /// Submission pinned to one replica (tests aim crashes this way).
  Result<FleetTicket> submit_to(std::size_t replica, const service::SubmitRequest& request);

  Result<service::TicketStatus> status(const FleetTicket& ticket) const;
  Result<service::TicketStatus> wait(const FleetTicket& ticket) const;

  void pause();
  void resume();
  void drain();

  /// Runs crash recovery on `replica`: fsck + resubmit of every surviving
  /// journal in the shared JournalStore. After a holder crashed, run this on
  /// any live replica — its acquire() waits out the dead holder's lease TTL,
  /// steals the lease, and finishes the build from the journal.
  Result<service::RecoveryReport> recover(std::size_t replica);

  std::size_t replica_count() const { return replicas_.size(); }
  service::RebuildService& replica(std::size_t index) { return *replicas_[index]; }
  LeaseCoordinator& coordinator(std::size_t index) { return *coordinators_[index]; }
  const std::shared_ptr<store::KvStore>& store() const { return store_; }
  /// The fleet's chunk store when chunked_artifacts is on; null otherwise.
  const std::shared_ptr<transfer::ChunkStore>& chunk_store() const { return chunks_; }
  durable::JournalStore& journals() { return *journals_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }

  FleetStats stats() const;

 private:
  registry::Registry& hub_;
  FleetOptions options_;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::shared_ptr<store::KvStore> store_;
  std::shared_ptr<transfer::ChunkStore> chunks_;
  std::unique_ptr<durable::JournalStore> journals_;
  std::vector<std::unique_ptr<LeaseCoordinator>> coordinators_;
  /// Destroyed first (reverse member order): each service drains while its
  /// coordinator and the shared journals are still alive.
  std::vector<std::unique_ptr<service::RebuildService>> replicas_;
  std::atomic<std::size_t> next_replica_{0};
};

}  // namespace comt::fleet
