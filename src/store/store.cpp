#include "store/store.hpp"

#include <optional>

namespace comt::store {

void KvStore::set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (metrics == nullptr) {
    gets_ = get_bytes_ = puts_ = put_bytes_ = erases_ = syncs_ = corrupt_ = nullptr;
    return;
  }
  gets_ = &metrics->counter("store.gets");
  get_bytes_ = &metrics->counter("store.get_bytes");
  puts_ = &metrics->counter("store.puts");
  put_bytes_ = &metrics->counter("store.put_bytes");
  erases_ = &metrics->counter("store.erases");
  syncs_ = &metrics->counter("store.syncs");
  corrupt_ = &metrics->counter("store.corrupt");
}

Result<bool> KvStore::compare_and_put(std::string_view key,
                                      const std::optional<std::string>& expected,
                                      std::string value) {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  // One mutex arbitrates every CAS on this object; get/put inside the
  // critical section make the read-compare-write indivisible relative to
  // rival compare_and_put callers — the only writers a lease keyspace has.
  std::lock_guard<std::mutex> lock(cas_mutex_);
  auto current = get(key);
  if (!current.ok() && current.error().code != Errc::not_found &&
      current.error().code != Errc::corrupt) {
    return current.error();
  }
  // A corrupt stored value (torn lease record) matches "absent": the damaged
  // bytes can never equal any expected value, and a claimer must be able to
  // overwrite them or the key would be wedged forever.
  if (expected.has_value()) {
    if (!current.ok() || current.value() != *expected) return false;
  } else {
    if (current.ok()) return false;
  }
  COMT_TRY_STATUS(put(key, std::move(value)));
  return true;
}

Result<std::shared_ptr<const std::string>> KvStore::get_shared(std::string_view key) const {
  COMT_TRY(std::string value, get(key));
  return std::make_shared<const std::string>(std::move(value));
}

Status KvStore::put_shared(std::string_view key, std::shared_ptr<const std::string> value) {
  return put(key, *value);
}

obs::Span KvStore::sync_span() const {
  return obs::maybe_span(tracer_, "store.sync", obs::kNoSpan, "store");
}

MemStore::MemStore(const MemStore& other) : KvStore() {
  std::lock_guard<std::mutex> lock(other.mutex_);
  entries_ = other.entries_;
}

Result<std::string> MemStore::get(std::string_view key) const {
  COMT_TRY(std::shared_ptr<const std::string> value, get_shared(key));
  return *value;
}

Result<std::shared_ptr<const std::string>> MemStore::get_shared(std::string_view key) const {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return make_error(Errc::not_found, "store: no such key: " + std::string(key));
  }
  note_get(it->second->size());
  return it->second;
}

Status MemStore::put(std::string_view key, std::string value) {
  return put_shared(key, std::make_shared<const std::string>(std::move(value)));
}

Status MemStore::put_shared(std::string_view key, std::shared_ptr<const std::string> value) {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  std::optional<std::size_t> torn;
  if (faults() != nullptr) torn = faults()->check_torn(kStorePutSite, value->size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (torn.has_value()) {
      // The medium persisted a prefix and the process dies here — the
      // in-memory analogue of a half-flushed file.
      entries_.insert_or_assign(std::string(key),
                                std::make_shared<const std::string>(value->substr(0, *torn)));
    } else {
      note_put(value->size());
      entries_.insert_or_assign(std::string(key), std::move(value));
    }
  }
  if (torn.has_value()) throw support::CrashInjected{std::string(kStorePutSite)};
  return Status::success();
}

Status MemStore::erase(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) entries_.erase(it);
  note_erase();
  return Status::success();
}

bool MemStore::contains(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(key) != entries_.end();
}

Result<std::uint64_t> MemStore::size(std::string_view key) const {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return make_error(Errc::not_found, "store: no such key: " + std::string(key));
  }
  return static_cast<std::uint64_t>(it->second->size());
}

std::vector<KvEntry> MemStore::list(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<KvEntry> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(KvEntry{it->first, it->second->size()});
  }
  return out;
}

Status MemStore::sync() {
  note_sync();
  return Status::success();
}

}  // namespace comt::store
