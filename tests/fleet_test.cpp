// The rebuild fleet: N service replicas over one shared store behaving like
// one logical service. Covers the lease record codec, claim/steal/release
// arbitration, waiter reuse of a holder's published result, global dedup of
// identical submissions across replicas (exactly one compiles), the
// cross-replica warm compile cache through the shared store, coordinator
// degradation on timeout, and the flagship failure path: lease holder
// crashes mid-rebuild, the lease expires, and another replica takes over via
// journal replay, finishing bit-identically.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "registry/registry.hpp"
#include "service/service.hpp"
#include "store/remote.hpp"
#include "store/store.hpp"
#include "support/fault.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

namespace comt::fleet {
namespace {

using service::JobState;
using service::SubmitRequest;
using service::TargetSystem;

constexpr const char* kSys = "x86";
constexpr const char* kOutTag = "1.0+coMre.x86";

/// Builds `app_name` on the user side and pushes its extended image to the
/// hub under "name:tag" — the state the fleet finds in production.
Status publish(registry::Registry& hub, const char* app_name, std::string_view name,
               std::string_view tag) {
  const workloads::AppSpec* app = workloads::find_app(app_name);
  if (app == nullptr) return make_error(Errc::not_found, "no such app in the corpus");
  workloads::Evaluation world(sysmodel::SystemProfile::x86_cluster());
  COMT_TRY(workloads::PreparedApp prepared, world.prepare(*app));
  return hub.push(world.layout(), prepared.extended_tag, name, tag);
}

TargetSystem make_target() {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  TargetSystem target;
  target.profile = &system;
  target.repo = &workloads::system_repo(system);
  EXPECT_TRUE(workloads::install_system_images(target.base_layout, system).ok());
  target.sysenv_tag = workloads::sysenv_tag(system);
  return target;
}

/// Reference digest of an uninterrupted single-service rebuild on a private
/// hub — the bit-identity yardstick for every fleet path.
std::string reference_digest() {
  registry::Registry hub;
  EXPECT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  service::RebuildService svc(hub);
  EXPECT_TRUE(svc.add_system(kSys, make_target()).ok());
  auto ticket = svc.submit({"hub/minimd", "1.0", kSys});
  EXPECT_TRUE(ticket.ok());
  auto done = svc.wait(ticket.value());
  EXPECT_TRUE(done.ok());
  EXPECT_EQ(done.value().state, JobState::succeeded);
  auto digest = hub.resolve("hub/minimd", kOutTag);
  EXPECT_TRUE(digest.ok());
  return digest.value().value;
}

/// The fleet coalescing key of a published image: manifest digest + system.
std::string job_key(registry::Registry& hub, const std::string& name,
                    const std::string& tag) {
  auto digest = hub.resolve(name, tag);
  EXPECT_TRUE(digest.ok());
  return digest.value().value + "|" + kSys;
}

// ---------------------------------------------------------------------------
// Lease record codec.

TEST(FleetLeaseTest, RecordRoundTripsAndRejectsDamage) {
  LeaseRecord record{"replica7", 42, 123456789};
  const std::string encoded = encode_lease(record);
  auto decoded = decode_lease(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, record);

  // A flipped bit anywhere fails the checksum.
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string damaged = encoded;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(decode_lease(damaged).has_value()) << "byte " << i;
  }
  // Truncation (a torn write's surviving prefix) is invalid, not misparsed.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(decode_lease(encoded.substr(0, cut)).has_value()) << "cut " << cut;
  }
  EXPECT_FALSE(decode_lease(encoded + "x").has_value());
}

// ---------------------------------------------------------------------------
// Claim / steal / release arbitration (no services involved).

TEST(FleetLeaseTest, ClaimStealAndRelease) {
  auto store = std::make_shared<store::MemStore>();
  LeaseCoordinator::Options a_opts;
  a_opts.replica_id = "a";
  a_opts.ttl = std::chrono::milliseconds(40);
  LeaseCoordinator a(store, nullptr, a_opts);
  LeaseCoordinator::Options b_opts = a_opts;
  b_opts.replica_id = "b";
  LeaseCoordinator b(store, nullptr, b_opts);

  auto grant = a.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(grant.value().reuse);
  EXPECT_FALSE(grant.value().stolen);
  EXPECT_EQ(grant.value().epoch, 1u);
  auto record = b.read_lease("k");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->owner, "a");

  // "a" dies without releasing; once the TTL lapses, "b" steals at epoch 2.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto steal = b.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(steal.ok());
  EXPECT_FALSE(steal.value().reuse);
  EXPECT_TRUE(steal.value().stolen);
  EXPECT_EQ(steal.value().epoch, 2u);
  EXPECT_EQ(b.read_lease("k")->owner, "b");

  // A late release by the dead reign must not clobber the new one.
  a.release("k", LeaseCoordinator::Outcome::failed, "", /*epoch=*/1, obs::kNoSpan);
  EXPECT_EQ(b.read_lease("k")->owner, "b");

  // The live reign finishes: marker published, lease retired.
  b.release("k", LeaseCoordinator::Outcome::succeeded, "img:tag", /*epoch=*/2, obs::kNoSpan);
  EXPECT_FALSE(b.read_lease("k").has_value());
  EXPECT_EQ(b.read_done("k").value_or(""), "img:tag");

  // Every later acquire is a reuse of the published result.
  auto reuse = a.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(reuse.ok());
  EXPECT_TRUE(reuse.value().reuse);
  EXPECT_EQ(reuse.value().output, "img:tag");
}

/// A holder on `store` releases 50 ms after a waiter starts watching; TTL and
/// max_wait are 2 s, so only the release can end the wait early.
void expect_waiter_woken_by_release(std::shared_ptr<store::KvStore> store) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  store->set_observer(nullptr, &metrics);
  LeaseCoordinator::Options opts;
  opts.replica_id = "holder";
  opts.ttl = std::chrono::milliseconds(2000);
  opts.max_wait = std::chrono::milliseconds(2000);
  LeaseCoordinator holder(store, nullptr, opts);
  opts.replica_id = "waiter";
  LeaseCoordinator waiter(store, nullptr, opts);
  waiter.set_observer(&tracer, &metrics);

  auto held = holder.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(held.ok());
  const std::uint64_t gets_before = metrics.counter_value("store.gets");
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    holder.release("k", LeaseCoordinator::Outcome::succeeded, "img:tag", held.value().epoch,
                   obs::kNoSpan);
  });
  auto got = waiter.acquire("k", obs::kNoSpan);
  publisher.join();
  const std::uint64_t gets = metrics.counter_value("store.gets") - gets_before;
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().reuse);
  EXPECT_EQ(got.value().output, "img:tag");
  // Woken by the release, not by the 2 s deadline.
  EXPECT_GT(got.value().wait_ms, 0.0);
  EXPECT_LT(got.value().wait_ms, 1000.0);
  // The waiter reads the marker and the record, watches, then reads the
  // marker again; the release reads the record once. A 1 ms poll would read
  // about 100 times over the 50 ms.
  EXPECT_LE(gets, 8u);
  EXPECT_EQ(metrics.counter_value("fleet.lease.waits"), 1u);
  EXPECT_EQ(metrics.counter_value("fleet.lease.reused"), 1u);

  // The acquire span carries the grant; its watch is a child span that the
  // release's write ended.
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  auto arg = [](const obs::SpanRecord& span, std::string_view key) {
    for (const auto& [k, v] : span.args) {
      if (k == key) return v;
    }
    return std::string();
  };
  const obs::SpanRecord* acquire = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "fleet.lease.acquire") acquire = &span;
  }
  ASSERT_NE(acquire, nullptr);
  EXPECT_EQ(arg(*acquire, "grant"), "reuse");
  std::size_t watches = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "fleet.lease.wait") continue;
    ++watches;
    EXPECT_EQ(span.parent, acquire->id);
    EXPECT_EQ(arg(span, "woke"), "changed");
  }
  EXPECT_EQ(watches, 1u);
}

TEST(FleetLeaseTest, WaiterIsWokenByTheRelease) {
  {
    SCOPED_TRACE("MemStore");
    expect_waiter_woken_by_release(std::make_shared<store::MemStore>());
  }
  {
    SCOPED_TRACE("RemoteStore over MemStore");
    expect_waiter_woken_by_release(
        std::make_shared<store::RemoteStore>(std::make_shared<store::MemStore>()));
  }
}

TEST(FleetLeaseTest, WaiterStealsAtTheDeadlineWithoutAWrite) {
  auto store = std::make_shared<store::MemStore>();
  obs::MetricsRegistry metrics;
  store->set_observer(nullptr, &metrics);
  LeaseCoordinator::Options opts;
  opts.replica_id = "holder";
  opts.ttl = std::chrono::milliseconds(80);
  opts.max_wait = std::chrono::milliseconds(2000);
  LeaseCoordinator holder(store, nullptr, opts);
  opts.replica_id = "waiter";
  LeaseCoordinator waiter(store, nullptr, opts);

  const auto start = std::chrono::steady_clock::now();
  auto held = holder.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(held.ok());
  const std::uint64_t gets_before = metrics.counter_value("store.gets");
  // The holder never releases: no write ends the watch, the deadline does.
  auto got = waiter.acquire("k", obs::kNoSpan);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().reuse);
  EXPECT_TRUE(got.value().stolen);
  EXPECT_EQ(got.value().epoch, 2u);
  EXPECT_EQ(waiter.read_lease("k")->owner, "waiter");
  // The lease clock counts whole milliseconds, so an 80 ms TTL lapses 79 to
  // 80 ms after the claim.
  EXPECT_GE(elapsed_ms, 79.0);
  EXPECT_LE(elapsed_ms, 150.0);
  EXPECT_LE(metrics.counter_value("store.gets") - gets_before, 8u);
}

/// Forwards to a MemStore, and runs `hook` once, right before the first
/// erase of `done` or read of `lease` after `arm()`.
class InterleavingStore final : public store::KvStore {
 public:
  InterleavingStore(std::string done, std::string lease)
      : done_(std::move(done)), lease_(std::move(lease)) {}
  void arm(std::function<void()> hook) { hook_ = std::move(hook); }

  Result<std::string> get(std::string_view key) const override {
    if (key == lease_) fire();
    return inner_.get(key);
  }
  Status put(std::string_view key, std::string value) override {
    return inner_.put(key, std::move(value));
  }
  Status erase(std::string_view key) override {
    if (key == done_) fire();
    return inner_.erase(key);
  }
  bool contains(std::string_view key) const override { return inner_.contains(key); }
  Result<std::uint64_t> size(std::string_view key) const override { return inner_.size(key); }
  std::vector<store::KvEntry> list(std::string_view prefix) const override {
    return inner_.list(prefix);
  }
  Status sync() override { return inner_.sync(); }
  Result<bool> wait_change(std::string_view key, const std::optional<std::string>& seen,
                           std::chrono::steady_clock::time_point deadline) const override {
    return inner_.wait_change(key, seen, deadline);
  }

 private:
  void fire() const {
    if (!hook_) return;
    auto hook = std::move(hook_);
    hook_ = nullptr;
    hook();
  }

  store::MemStore inner_;
  std::string done_, lease_;
  mutable std::function<void()> hook_;
};

TEST(FleetLeaseTest, StaleMarkerCheckNeverLosesAFreshMarker) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  auto store = std::make_shared<InterleavingStore>(std::string(kDonePrefix) + "k",
                                                   std::string(kLeasePrefix) + "k");
  obs::MetricsRegistry metrics;
  LeaseCoordinator::Options opts;
  opts.replica_id = "holder";
  LeaseCoordinator holder(store, &hub, opts);
  holder.set_observer(nullptr, &metrics);
  opts.replica_id = "late";
  LeaseCoordinator late(store, &hub, opts);
  late.set_observer(nullptr, &metrics);

  auto held = holder.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(held.ok());
  ASSERT_FALSE(held.value().reuse);

  // The late replica finds the marker of an earlier build whose output was
  // garbage-collected; the holder publishes and retires its lease before the
  // late replica's next store operation.
  ASSERT_TRUE(store->put(std::string(kDonePrefix) + "k", "hub/minimd:gone").ok());
  store->arm([&] {
    holder.release("k", LeaseCoordinator::Outcome::succeeded, "hub/minimd:1.0",
                   held.value().epoch, obs::kNoSpan);
  });
  auto got = late.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().reuse);
  EXPECT_EQ(got.value().output, "hub/minimd:1.0");
  EXPECT_EQ(late.read_done("k").value_or(""), "hub/minimd:1.0");
  EXPECT_EQ(metrics.counter_value("fleet.lease.acquired"), 1u);  // built once
}

TEST(FleetLeaseTest, TornLeaseRecordIsClaimableNotWedged) {
  auto store = std::make_shared<store::MemStore>();
  // A torn write left garbage under the lease key.
  ASSERT_TRUE(store->put("fleet/lease/k", "not a lease record").ok());
  LeaseCoordinator::Options opts;
  opts.replica_id = "a";
  LeaseCoordinator a(store, nullptr, opts);
  auto grant = a.acquire("k", obs::kNoSpan);
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(grant.value().reuse);
  EXPECT_EQ(a.read_lease("k")->owner, "a");
}

// ---------------------------------------------------------------------------
// Fleet over a shared store.

TEST(FleetTest, IdenticalSubmissionsAcrossReplicasBuildExactlyOnce) {
  const std::string want = reference_digest();

  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  FleetOptions options;
  options.replicas = 3;
  options.lease_ttl = std::chrono::seconds(30);  // far above any build here
  Fleet fleet(hub, options);
  ASSERT_TRUE(fleet.add_system(kSys, make_target()).ok());

  // The same request lands on every replica at once — the N-clients-hit-N-
  // replicas worst case a load balancer produces.
  std::vector<FleetTicket> tickets;
  for (std::size_t i = 0; i < 3; ++i) {
    auto ticket = fleet.submit_to(i, {"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
    tickets.push_back(ticket.value());
  }

  int built = 0, reused = 0;
  for (const FleetTicket& ticket : tickets) {
    auto done = fleet.wait(ticket);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().state, JobState::succeeded)
        << done.value().result.error().to_string();
    EXPECT_EQ(done.value().output, std::string("hub/minimd:") + kOutTag);
    if (done.value().trace.fleet_reuse) {
      ++reused;
      EXPECT_EQ(done.value().trace.compile_jobs, 0u);  // never touched the toolchain
    } else {
      ++built;
      EXPECT_GT(done.value().trace.compile_jobs, 0u);
    }
  }
  // Exactly one replica compiled; the other two adopted its published image.
  EXPECT_EQ(built, 1);
  EXPECT_EQ(reused, 2);

  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.succeeded, 3u);
  EXPECT_EQ(stats.leases_acquired, 1u);
  EXPECT_EQ(stats.fleet_reused, 2u);
  EXPECT_EQ(stats.lease_steals, 0u);
  EXPECT_EQ(stats.coordinator_errors, 0u);

  // And the one build is bit-identical to the uncoordinated reference.
  EXPECT_EQ(hub.resolve("hub/minimd", kOutTag).value().value, want);
}

TEST(FleetTest, LeaseSpansNestUnderTheJob) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  obs::Tracer tracer;
  FleetOptions options;
  options.replicas = 2;
  options.tracer = &tracer;
  Fleet fleet(hub, options);
  ASSERT_TRUE(fleet.add_system(kSys, make_target()).ok());

  std::vector<FleetTicket> tickets;
  for (std::size_t i = 0; i < 2; ++i) {
    auto ticket = fleet.submit_to(i, {"hub/minimd", "1.0", kSys});
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  for (const FleetTicket& ticket : tickets) {
    ASSERT_EQ(fleet.wait(ticket).value().state, JobState::succeeded);
  }

  // One acquire per job and one release for the one build, each under its
  // job's "service.job" span; every watch under an acquire.
  std::map<obs::SpanId, std::string> names;
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  for (const obs::SpanRecord& span : spans) names[span.id] = span.name;
  std::map<std::string, std::size_t> lease_spans;
  for (const obs::SpanRecord& span : spans) {
    if (span.name.rfind("fleet.lease.", 0) != 0) continue;
    ++lease_spans[span.name];
    const std::string parent = names[span.parent];
    EXPECT_EQ(parent, span.name == "fleet.lease.wait" ? "fleet.lease.acquire" : "service.job")
        << span.name;
  }
  EXPECT_EQ(lease_spans["fleet.lease.acquire"], 2u);
  EXPECT_EQ(lease_spans["fleet.lease.release"], 1u);
}

TEST(FleetTest, CrossReplicaWarmCacheThroughSharedStore) {
  const std::string want = reference_digest();

  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  FleetOptions options;
  options.replicas = 2;
  Fleet fleet(hub, options);
  ASSERT_TRUE(fleet.add_system(kSys, make_target()).ok());

  // Replica 0 builds cold, writing every compile through to the shared store.
  auto first = fleet.submit_to(0, {"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(fleet.wait(first.value()).value().state, JobState::succeeded);

  // Expire the global memo (a production deployment ages done markers out),
  // forcing replica 1 to run the rebuild itself rather than adopt the image.
  const std::string key = job_key(hub, "hub/minimd", "1.0");
  ASSERT_TRUE(fleet.store()->erase(std::string(kDonePrefix) + key).ok());

  auto second = fleet.submit_to(1, {"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(second.ok());
  auto done = fleet.wait(second.value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, JobState::succeeded)
      << done.value().result.error().to_string();
  // Replica 1 never compiled these jobs before, yet every one of them hit:
  // its local misses fell back to the entries replica 0 pushed to the store.
  EXPECT_FALSE(done.value().trace.fleet_reuse);
  EXPECT_GT(done.value().trace.cache_hits, 0u);
  EXPECT_EQ(done.value().trace.cache_misses, 0u);
  EXPECT_GT(fleet.stats().cache_remote_hits, 0u);
  EXPECT_EQ(hub.resolve("hub/minimd", kOutTag).value().value, want);
}

TEST(FleetTest, CoordinatorTimeoutDegradesToUncoordinatedBuild) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  FleetOptions options;
  options.replicas = 2;
  options.lease_ttl = std::chrono::seconds(60);      // holder never expires...
  options.lease_max_wait = std::chrono::milliseconds(30);  // ...waiters give up
  Fleet fleet(hub, options);
  ASSERT_TRUE(fleet.add_system(kSys, make_target()).ok());

  // Wedge the lease from outside: a holder that never finishes.
  const std::string key = job_key(hub, "hub/minimd", "1.0");
  auto wedge = fleet.coordinator(0).acquire(key, obs::kNoSpan);
  ASSERT_TRUE(wedge.ok());

  auto ticket = fleet.submit_to(1, {"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(ticket.ok());
  auto done = fleet.wait(ticket.value());
  ASSERT_TRUE(done.ok());
  // Coordination timed out, the build went ahead anyway and succeeded.
  ASSERT_EQ(done.value().state, JobState::succeeded)
      << done.value().result.error().to_string();
  EXPECT_FALSE(done.value().trace.fleet_reuse);
  EXPECT_EQ(fleet.stats().coordinator_errors, 1u);
}

TEST(FleetTest, RoundRobinSpreadsSubmissionsAcrossReplicas) {
  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  FleetOptions options;
  options.replicas = 2;
  Fleet fleet(hub, options);
  ASSERT_TRUE(fleet.add_system(kSys, make_target()).ok());

  auto first = fleet.submit({"hub/minimd", "1.0", kSys});
  auto second = fleet.submit({"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().replica, second.value().replica);
  EXPECT_EQ(fleet.wait(first.value()).value().state, JobState::succeeded);
  EXPECT_EQ(fleet.wait(second.value()).value().state, JobState::succeeded);
  // Two replicas, one key: one built, one reused or coalesced globally.
  EXPECT_EQ(fleet.stats().leases_acquired, 1u);
}

// ---------------------------------------------------------------------------
// Flagship failure path: holder crashes mid-rebuild → lease expires →
// another replica takes over via journal replay → bit-identical image.

TEST(FleetTest, CrashedHolderLeaseExpiresAndAnotherReplicaResumesFromJournal) {
  const std::string want = reference_digest();

  registry::Registry hub;
  ASSERT_TRUE(publish(hub, "minimd", "hub/minimd", "1.0").ok());
  support::FaultInjector faults;
  FleetOptions options;
  options.replicas = 2;
  options.rebuild_threads = 1;  // a crash must unwind the submitting worker
  options.faults = &faults;
  options.lease_ttl = std::chrono::milliseconds(60);
  Fleet fleet(hub, options);
  ASSERT_TRUE(fleet.add_system(kSys, make_target()).ok());

  // Replica 0 dies inside compile job 2, after job 1's commit landed in the
  // shared journal. It still holds the lease — dead processes release nothing.
  faults.crash_at(core::kCrashJobCommitted, 2);
  auto doomed = fleet.submit_to(0, {"hub/minimd", "1.0", kSys});
  ASSERT_TRUE(doomed.ok());
  auto crashed = fleet.wait(doomed.value());
  ASSERT_TRUE(crashed.ok());
  ASSERT_EQ(crashed.value().state, JobState::failed);
  EXPECT_TRUE(crashed.value().trace.crashed);
  EXPECT_EQ(fleet.journals().size(), 1u);
  const std::string key = job_key(hub, "hub/minimd", "1.0");
  auto stale = fleet.coordinator(1).read_lease(key);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->owner, "replica0");
  faults.clear_all();

  // Replica 1 recovers the shared journal store: it resubmits the interrupted
  // request, waits out the dead holder's TTL, steals the lease, and finishes
  // from the journal instead of recompiling committed work.
  auto recovery = fleet.recover(1);
  ASSERT_TRUE(recovery.ok()) << recovery.error().to_string();
  EXPECT_EQ(recovery.value().journals_found, 1u);
  ASSERT_EQ(recovery.value().resubmitted.size(), 1u);

  auto done = fleet.wait(FleetTicket{1, recovery.value().resubmitted[0]});
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, JobState::succeeded)
      << done.value().result.error().to_string();
  EXPECT_TRUE(done.value().trace.lease_stolen);
  EXPECT_GT(done.value().trace.journal_replayed, 0u);

  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.lease_steals, 1u);
  EXPECT_EQ(stats.crashed, 1u);

  // The takeover build is bit-identical to the uninterrupted reference, and
  // the retired journal leaves nothing to recover.
  EXPECT_EQ(hub.resolve("hub/minimd", kOutTag).value().value, want);
  EXPECT_EQ(fleet.journals().size(), 0u);
  EXPECT_EQ(fleet.recover(0).value().journals_found, 0u);
}

}  // namespace
}  // namespace comt::fleet
