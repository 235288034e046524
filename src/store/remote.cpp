#include "store/remote.hpp"

#include <cassert>
#include <thread>
#include <utility>

#include "store/wire.hpp"

namespace comt::store {

RemoteStore::RemoteStore(std::shared_ptr<KvStore> inner, Options options)
    : inner_(std::move(inner)), options_(options) {
  assert(inner_ != nullptr && "RemoteStore needs a backing store");
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

std::string RemoteStore::frame(std::string_view value) {
  std::string out;
  out.reserve(kFrameHeader + value.size());
  wire::put_u32(out, static_cast<std::uint32_t>(value.size()));
  wire::put_u64(out, wire::fnv1a64(value));
  out.append(value);
  return out;
}

Result<std::string> RemoteStore::unframe(std::string_view key,
                                         std::string framed) const {
  wire::Reader reader{framed};
  const std::uint32_t size = reader.u32();
  const std::uint64_t hash = reader.u64();
  if (!reader.ok || framed.size() != kFrameHeader + size) {
    return make_error(Errc::corrupt,
                      "remote store: torn transfer for key: " + std::string(key));
  }
  std::string value = framed.substr(kFrameHeader);
  if (wire::fnv1a64(value) != hash) {
    return make_error(Errc::corrupt,
                      "remote store: checksum mismatch for key: " + std::string(key));
  }
  return value;
}

void RemoteStore::note_retry() const {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retry_counter_ != nullptr) retry_counter_->add();
}

RemoteStore::BreakerState RemoteStore::breaker_state() const {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  return state_;
}

void RemoteStore::breaker_transition_locked(BreakerState next,
                                            std::string_view why) const {
  state_ = next;
  if (next == BreakerState::open) {
    opened_at_ = std::chrono::steady_clock::now();
    probe_in_flight_ = false;
    if (breaker_opens_ != nullptr) breaker_opens_->add();
  } else if (next == BreakerState::closed) {
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    if (breaker_closes_ != nullptr) breaker_closes_->add();
  }
  obs::Span span = obs::maybe_span(tracer_, "remote.breaker", obs::kNoSpan, "store");
  span.annotate("state", next == BreakerState::open      ? "open"
                         : next == BreakerState::closed  ? "closed"
                                                         : "half_open");
  span.annotate("why", why);
}

Status RemoteStore::breaker_admit(std::string_view op) const {
  if (options_.breaker_threshold <= 0) return Status::success();
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  switch (state_) {
    case BreakerState::closed:
      return Status::success();
    case BreakerState::open:
      if (std::chrono::steady_clock::now() - opened_at_ >= options_.breaker_cooldown) {
        // Cooldown lapsed: this caller becomes the half-open probe.
        breaker_transition_locked(BreakerState::half_open, "cooldown lapsed");
        probe_in_flight_ = true;
        return Status::success();
      }
      break;
    case BreakerState::half_open:
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return Status::success();
      }
      break;
  }
  fast_fails_.fetch_add(1, std::memory_order_relaxed);
  if (breaker_fast_fail_counter_ != nullptr) breaker_fast_fail_counter_->add();
  return make_error(Errc::failed, "remote store: circuit breaker open, " +
                                      std::string(op) + " failed fast");
}

void RemoteStore::breaker_record(bool ok) const {
  if (options_.breaker_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  if (ok) {
    if (state_ == BreakerState::half_open) {
      breaker_transition_locked(BreakerState::closed, "probe succeeded");
    } else {
      consecutive_failures_ = 0;
    }
    return;
  }
  if (state_ == BreakerState::half_open) {
    breaker_transition_locked(BreakerState::open, "probe failed");
    return;
  }
  if (state_ == BreakerState::closed &&
      ++consecutive_failures_ >= options_.breaker_threshold) {
    breaker_transition_locked(BreakerState::open, "consecutive failures");
  }
}

void RemoteStore::note_wire_get(std::uint64_t bytes) const {
  wire_get_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void RemoteStore::note_wire_put(std::uint64_t bytes) const {
  wire_put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Status RemoteStore::checked_attempts(std::string_view site, int* attempts) const {
  if (attempts != nullptr) *attempts = 1;
  if (faults() == nullptr) return Status::success();
  Status last = Status::success();
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempts != nullptr) *attempts = attempt;
    last = faults()->check(site);
    if (last.ok()) return last;
    if (attempt == options_.max_attempts) break;
    note_retry();
    if (options_.backoff.count() > 0) {
      // Exponential backoff: base, 2x, 4x, ... (shift capped well below
      // overflow — nobody configures 2^20 retries).
      const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
      std::this_thread::sleep_for(options_.backoff * (std::int64_t{1} << shift));
    }
  }
  return last;
}

Result<std::string> RemoteStore::get(std::string_view key) const {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  COMT_TRY_STATUS(breaker_admit("get"));
  // Only transport-level outcomes feed the breaker: not_found/corrupt are
  // answers from a healthy endpoint, not evidence it is down.
  int attempts = 1;
  Status reachable = checked_attempts(kRemoteGetSite, &attempts);
  breaker_record(reachable.ok());
  COMT_TRY_STATUS(reachable);
  if (options_.get_latency.count() > 0) {
    std::this_thread::sleep_for(options_.get_latency);
  }
  auto framed = inner_->get(key);
  if (!framed.ok()) {
    if (framed.error().code == Errc::corrupt) note_corrupt();
    return framed.error();
  }
  // Every attempt re-downloaded the framed object; only the last one
  // completed, but the wire carried all of them.
  const std::uint64_t wire =
      static_cast<std::uint64_t>(framed.value().size()) * static_cast<std::uint64_t>(attempts);
  auto value = unframe(key, std::move(framed.value()));
  if (value.ok()) {
    note_wire_get(wire);
    logical_get_bytes_.fetch_add(value.value().size(), std::memory_order_relaxed);
    if (logical_get_counter_ != nullptr) logical_get_counter_->add(value.value().size());
    note_get(wire);
  } else {
    note_corrupt();
  }
  return value;
}

Status RemoteStore::put(std::string_view key, std::string value) {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  COMT_TRY_STATUS(breaker_admit("put"));
  const std::uint64_t frame_size = value.size() + kFrameHeader;
  int attempts = 1;
  Status reachable = checked_attempts(kRemotePutSite, &attempts);
  breaker_record(reachable.ok());
  if (!reachable.ok()) {
    // Every exhausted attempt still pushed the object at the endpoint before
    // the transfer died — the wire saw all of it even though the op failed.
    note_wire_put(frame_size * static_cast<std::uint64_t>(attempts));
    return reachable;
  }
  if (options_.put_latency.count() > 0) {
    std::this_thread::sleep_for(options_.put_latency);
  }
  const std::uint64_t bytes = value.size();
  std::string framed = frame(value);
  std::optional<std::size_t> torn;
  if (faults() != nullptr) torn = faults()->check_torn(kRemotePutSite, framed.size());
  if (torn.has_value()) {
    // The upload died mid-flight: the endpoint keeps the bytes that arrived
    // and the client never completes the transfer. The truncated frame fails
    // checksum verification on the next download. The failed earlier attempts
    // sent the whole frame; this one sent the kept prefix.
    note_wire_put(frame_size * static_cast<std::uint64_t>(attempts - 1) + *torn);
    (void)inner_->put(key, framed.substr(0, *torn));
    throw support::CrashInjected{std::string(kRemotePutSite)};
  }
  COMT_TRY_STATUS(inner_->put(key, std::move(framed)));
  const std::uint64_t wire = frame_size * static_cast<std::uint64_t>(attempts);
  note_wire_put(wire);
  logical_put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (logical_put_counter_ != nullptr) logical_put_counter_->add(bytes);
  note_put(wire);
  return Status::success();
}

Status RemoteStore::erase(std::string_view key) {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  COMT_TRY_STATUS(inner_->erase(key));
  note_erase();
  return Status::success();
}

bool RemoteStore::contains(std::string_view key) const {
  return inner_->contains(key);
}

Result<std::uint64_t> RemoteStore::size(std::string_view key) const {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  COMT_TRY(std::uint64_t framed, inner_->size(key));
  if (framed < kFrameHeader) {
    return make_error(Errc::corrupt,
                      "remote store: torn transfer for key: " + std::string(key));
  }
  return framed - kFrameHeader;
}

std::vector<KvEntry> RemoteStore::list(std::string_view prefix) const {
  std::vector<KvEntry> out = inner_->list(prefix);
  for (KvEntry& entry : out) {
    entry.size = entry.size >= kFrameHeader ? entry.size - kFrameHeader : 0;
  }
  return out;
}

Result<bool> RemoteStore::wait_change(std::string_view key,
                                      const std::optional<std::string>& seen,
                                      std::chrono::steady_clock::time_point deadline) const {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  COMT_TRY_STATUS(breaker_admit("watch"));
  Status reachable = checked_attempts(kRemoteGetSite);
  breaker_record(reachable.ok());
  COMT_TRY_STATUS(reachable);
  if (options_.get_latency.count() > 0) {
    std::this_thread::sleep_for(options_.get_latency);
  }
  std::optional<std::string> framed;
  if (seen.has_value()) framed = frame(*seen);
  return inner_->wait_change(key, framed, deadline);
}

Status RemoteStore::sync() {
  obs::Span span = sync_span();
  COMT_TRY_STATUS(inner_->sync());
  note_sync();
  return Status::success();
}

void RemoteStore::set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  KvStore::set_observer(tracer, metrics);
  tracer_ = tracer;
  if (metrics == nullptr) {
    retry_counter_ = nullptr;
    logical_get_counter_ = logical_put_counter_ = nullptr;
    breaker_opens_ = breaker_closes_ = breaker_fast_fail_counter_ = nullptr;
    return;
  }
  retry_counter_ = &metrics->counter("store.remote.retries");
  logical_get_counter_ = &metrics->counter("store.remote.logical_get_bytes");
  logical_put_counter_ = &metrics->counter("store.remote.logical_put_bytes");
  breaker_opens_ = &metrics->counter("store.remote.breaker.opens");
  breaker_closes_ = &metrics->counter("store.remote.breaker.closes");
  breaker_fast_fail_counter_ = &metrics->counter("store.remote.breaker.fast_fails");
}

}  // namespace comt::store
