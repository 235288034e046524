#include "fleet/lease.hpp"

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

/// The steady-clock instant of a lease deadline (lease_now_ms()'s clock),
/// capped at `cap` before the conversion, so a garbage deadline cannot
/// overflow it.
std::chrono::steady_clock::time_point lease_instant(std::uint64_t deadline_ms,
                                                    std::chrono::steady_clock::time_point cap) {
  const auto cap_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(cap.time_since_epoch()).count();
  if (cap_ms < 0 || deadline_ms >= static_cast<std::uint64_t>(cap_ms)) return cap;
  return std::chrono::steady_clock::time_point(
      std::chrono::milliseconds(static_cast<std::int64_t>(deadline_ms)));
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
}

void LeaseCoordinator::set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
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
    const std::string& key) {
  auto done = store_->get(done_key(key));
  if (!done.ok() || !output_resolves(done.value())) return std::nullopt;
  // The previous holder finished between our marker check and our claim; we
  // hold a lease nobody needs. Drop it and hand back the published result.
  (void)store_->erase(lease_key(key));
  note(reused_);
  Grant grant;
  grant.reuse = true;
  grant.output = std::move(done.value());
  return grant;
}

Result<LeaseCoordinator::Grant> LeaseCoordinator::acquire(const std::string& key,
                                                          obs::SpanId parent) {
  obs::Span span = obs::maybe_span(tracer_, "fleet.lease.acquire", parent, "fleet");
  const auto start = std::chrono::steady_clock::now();
  const auto give_up = start + options_.max_wait;
  // Every way out annotates the span; a grant also records its wait.
  auto granted = [&](std::string_view kind, Grant grant) -> Result<Grant> {
    grant.wait_ms = elapsed_ms(start);
    if (wait_ms_ != nullptr) wait_ms_->add(grant.wait_ms);
    span.annotate("grant", kind);
    return grant;
  };
  auto refused = [&](std::string_view kind, Error error) -> Result<Grant> {
    span.annotate("grant", kind);
    return error;
  };
  bool counted_wait = false;
  for (;;) {
    // 1. Global memo first: someone may have already built and published.
    auto done = store_->get(done_key(key));
    if (done.ok() && output_resolves(done.value())) {
      note(reused_);
      Grant grant;
      grant.reuse = true;
      grant.output = std::move(done.value());
      return granted("reuse", std::move(grant));
    }
    // A stale memo (the published image vanished from the hub) counts as
    // absent: fall through to the lease. Never erase it here: the holder may
    // publish a fresh marker (often the same "name:tag") between this check
    // and an erase, and erasing that one would send the next claimer into a
    // duplicate build. The next successful build overwrites the stale marker.

    // 2. The lease. Corrupt (torn record) counts as absent: compare_and_put
    // arbitrates the overwrite.
    auto current = store_->get(lease_key(key));
    if (!current.ok() && current.error().code != Errc::not_found &&
        current.error().code != Errc::corrupt) {
      return refused("error", current.error());
    }
    std::optional<LeaseRecord> record;
    if (current.ok()) record = decode_lease(current.value());
    const std::uint64_t now_ms = lease_now_ms();

    if (!record.has_value() || now_ms >= record->deadline_ms) {
      // No live holder. An absent key is claimed at epoch 1. A dead holder's
      // record (expired TTL, or damaged beyond the store's own framing) is
      // stolen by CAS on its exact stored bytes, bumping the epoch so a late
      // release by the old holder cannot clobber the new reign.
      const bool steal = current.ok();
      std::optional<std::string> expected;
      if (steal) expected = current.value();
      LeaseRecord next{options_.replica_id, record.has_value() ? record->epoch + 1 : 1,
                       now_ms + static_cast<std::uint64_t>(options_.ttl.count())};
      auto won = store_->compare_and_put(lease_key(key), expected, encode_lease(next));
      if (!won.ok()) return refused("error", won.error());
      if (!won.value()) continue;  // lost the race; re-evaluate immediately
      if (auto reuse = reuse_after_claim(key)) return granted("reuse", std::move(*reuse));
      note(acquired_);
      if (steal) note(steals_);
      Grant grant;
      grant.epoch = next.epoch;
      grant.stolen = steal;
      return granted(steal ? "steal" : "claim", std::move(grant));
    }

    // 3. A live holder is building. Watch its record until a write replaces
    // it (the holder's release erases it, a thief's steal rewrites it), or
    // until it expires or this acquire gives up.
    if (!counted_wait) {
      counted_wait = true;
      note(waits_);
    }
    if (std::chrono::steady_clock::now() >= give_up) {
      return refused("timeout",
                     make_error(Errc::failed, "fleet: lease wait timed out for key: " + key));
    }
    obs::Span wait = obs::maybe_span(tracer_, "fleet.lease.wait", span.id(), "fleet");
    auto changed = store_->wait_change(lease_key(key), current.value(),
                                       lease_instant(record->deadline_ms, give_up));
    if (!changed.ok()) return refused("error", changed.error());
    wait.annotate("woke", changed.value() ? "changed" : "deadline");
  }
}

void LeaseCoordinator::release(const std::string& key, Outcome outcome,
                               const std::string& output, std::uint64_t epoch,
                               obs::SpanId parent) {
  obs::Span span = obs::maybe_span(tracer_, "fleet.lease.release", parent, "fleet");
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
  // The erase is the write that wakes this key's waiters.
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
