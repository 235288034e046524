#include "fleet/lease.hpp"

#include <thread>
#include <utility>

#include "store/wire.hpp"

namespace comt::fleet {
namespace {

namespace wire = comt::store::wire;

std::string lease_key(const std::string& key) { return std::string(kLeasePrefix) + key; }
std::string done_key(const std::string& key) { return std::string(kDonePrefix) + key; }

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

}  // namespace

std::uint64_t lease_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string encode_lease(const LeaseRecord& record) {
  std::string out;
  wire::put_str(out, record.owner);
  wire::put_u64(out, record.epoch);
  wire::put_u64(out, record.deadline_ms);
  wire::put_u64(out, wire::fnv1a64(out));
  return out;
}

std::optional<LeaseRecord> decode_lease(std::string_view encoded) {
  if (encoded.size() < 8) return std::nullopt;
  const std::string_view payload = encoded.substr(0, encoded.size() - 8);
  wire::Reader trailer{encoded.substr(encoded.size() - 8)};
  if (trailer.u64() != wire::fnv1a64(payload)) return std::nullopt;
  wire::Reader reader{payload};
  LeaseRecord record;
  record.owner = reader.str();
  record.epoch = reader.u64();
  record.deadline_ms = reader.u64();
  if (!reader.ok || !reader.at_end()) return std::nullopt;
  return record;
}

LeaseCoordinator::LeaseCoordinator(std::shared_ptr<store::KvStore> store,
                                   registry::Registry* hub, Options options)
    : store_(std::move(store)), hub_(hub), options_(std::move(options)) {
  if (options_.ttl.count() <= 0) options_.ttl = std::chrono::milliseconds(1);
  if (options_.poll.count() <= 0) options_.poll = std::chrono::milliseconds(1);
}

void LeaseCoordinator::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    acquired_ = steals_ = reused_ = waits_ = releases_ = nullptr;
    wait_ms_ = nullptr;
    return;
  }
  acquired_ = &metrics->counter("fleet.lease.acquired");
  steals_ = &metrics->counter("fleet.lease.steals");
  reused_ = &metrics->counter("fleet.lease.reused");
  waits_ = &metrics->counter("fleet.lease.waits");
  releases_ = &metrics->counter("fleet.lease.releases");
  wait_ms_ = &metrics->gauge("fleet.lease.wait_ms");
}

void LeaseCoordinator::note(obs::Counter* counter) const {
  if (counter != nullptr) counter->add();
}

bool LeaseCoordinator::output_resolves(const std::string& output) const {
  if (hub_ == nullptr) return true;
  const std::size_t colon = output.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  return hub_->resolve(output.substr(0, colon), output.substr(colon + 1)).ok();
}

std::optional<LeaseCoordinator::Grant> LeaseCoordinator::reuse_after_claim(
    const std::string& key, double wait_ms) {
  auto done = store_->get(done_key(key));
  if (!done.ok() || !output_resolves(done.value())) return std::nullopt;
  // The previous holder finished between our marker check and our claim; we
  // hold a lease nobody needs. Drop it and hand back the published result.
  (void)store_->erase(lease_key(key));
  note(reused_);
  Grant grant;
  grant.reuse = true;
  grant.output = done.value();
  grant.wait_ms = wait_ms;
  return grant;
}

Result<LeaseCoordinator::Grant> LeaseCoordinator::acquire(const std::string& key) {
  const auto start = std::chrono::steady_clock::now();
  bool counted_wait = false;
  for (;;) {
    // 1. Global memo first: someone may have already built and published.
    auto done = store_->get(done_key(key));
    if (done.ok()) {
      if (output_resolves(done.value())) {
        note(reused_);
        if (wait_ms_ != nullptr) wait_ms_->add(elapsed_ms(start));
        Grant grant;
        grant.reuse = true;
        grant.output = done.value();
        grant.wait_ms = elapsed_ms(start);
        return grant;
      }
      // Stale memo — the published image vanished from the hub: treat it as
      // absent and fall through to the lease. Never erase it here: the
      // holder may publish a fresh marker (often the same "name:tag")
      // between this check and an erase, and erasing that one would send
      // the next claimer into a duplicate build. The next successful build
      // overwrites the stale marker.
    }

    // 2. The lease. Corrupt (torn record) counts as absent: compare_and_put
    // arbitrates the overwrite.
    auto current = store_->get(lease_key(key));
    if (!current.ok() && current.error().code != Errc::not_found &&
        current.error().code != Errc::corrupt) {
      return current.error();
    }

    if (!current.ok()) {
      LeaseRecord fresh{options_.replica_id, 1,
                        lease_now_ms() + static_cast<std::uint64_t>(options_.ttl.count())};
      COMT_TRY(bool won,
               store_->compare_and_put(lease_key(key), std::nullopt, encode_lease(fresh)));
      if (won) {
        if (auto reuse = reuse_after_claim(key, elapsed_ms(start))) return *reuse;
        note(acquired_);
        if (wait_ms_ != nullptr) wait_ms_->add(elapsed_ms(start));
        Grant grant;
        grant.epoch = fresh.epoch;
        grant.wait_ms = elapsed_ms(start);
        return grant;
      }
      continue;  // lost the claim race; re-evaluate immediately
    }

    std::optional<LeaseRecord> record = decode_lease(current.value());
    if (!record.has_value() || lease_now_ms() >= record->deadline_ms) {
      // Dead holder (expired TTL) or a record damaged beyond the store's own
      // framing: steal by CAS on the exact stored bytes, bumping the epoch so
      // a late release by the old holder cannot clobber the new reign.
      LeaseRecord next{options_.replica_id,
                       record.has_value() ? record->epoch + 1 : 1,
                       lease_now_ms() + static_cast<std::uint64_t>(options_.ttl.count())};
      COMT_TRY(bool won, store_->compare_and_put(lease_key(key), current.value(),
                                                 encode_lease(next)));
      if (won) {
        if (auto reuse = reuse_after_claim(key, elapsed_ms(start))) return *reuse;
        note(acquired_);
        note(steals_);
        if (wait_ms_ != nullptr) wait_ms_->add(elapsed_ms(start));
        Grant grant;
        grant.epoch = next.epoch;
        grant.stolen = true;
        grant.wait_ms = elapsed_ms(start);
        return grant;
      }
      continue;
    }

    // 3. A live holder is building. Wait out one poll tick.
    if (!counted_wait) {
      counted_wait = true;
      note(waits_);
    }
    if (elapsed_ms(start) > static_cast<double>(options_.max_wait.count())) {
      return make_error(Errc::failed, "fleet: lease wait timed out for key: " + key);
    }
    std::this_thread::sleep_for(options_.poll);
  }
}

void LeaseCoordinator::release(const std::string& key, Outcome outcome,
                               const std::string& output, std::uint64_t epoch) {
  if (outcome == Outcome::succeeded && !output.empty()) {
    // Marker before lease erase: a waiter that sees the lease vanish must
    // already be able to see the result.
    (void)store_->put(done_key(key), output);
  }
  auto current = store_->get(lease_key(key));
  if (current.ok()) {
    std::optional<LeaseRecord> record = decode_lease(current.value());
    if (record.has_value() &&
        (record->owner != options_.replica_id || record->epoch != epoch)) {
      // The lease was stolen while we built (TTL undersized for this build).
      // The new reign owns the record now; leave it alone.
      return;
    }
  }
  (void)store_->erase(lease_key(key));
  note(releases_);
}

std::optional<LeaseRecord> LeaseCoordinator::read_lease(const std::string& key) const {
  auto current = store_->get(lease_key(key));
  if (!current.ok()) return std::nullopt;
  return decode_lease(current.value());
}

std::optional<std::string> LeaseCoordinator::read_done(const std::string& key) const {
  auto done = store_->get(done_key(key));
  if (!done.ok()) return std::nullopt;
  return done.value();
}

}  // namespace comt::fleet
