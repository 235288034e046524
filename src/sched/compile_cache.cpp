#include "sched/compile_cache.hpp"

#include <mutex>
#include <optional>

#include "store/wire.hpp"
#include "support/sha256.hpp"

namespace comt::sched {
namespace {

namespace wire = comt::store::wire;

void append_field(std::string& buffer, const std::string& field) {
  buffer += std::to_string(field.size());
  buffer += ':';
  buffer += field;
}

/// Persisted entry layout: [u32 n_inputs] n×(str path, str digest)
/// [u32 n_outputs] n×(str path, str content, u32 mode), followed by the
/// 64-hex-char sha256 of everything before it. The trailer makes corruption
/// detectable end-to-end even on a backing store without its own framing —
/// a damaged entry must degrade to a miss, never replay wrong outputs.
constexpr std::size_t kEntryTrailerSize = 64;

std::string serialize_entry(const CacheEntry& entry) {
  std::string out;
  wire::put_u32(out, static_cast<std::uint32_t>(entry.input_digests.size()));
  for (const auto& [path, digest] : entry.input_digests) {
    wire::put_str(out, path);
    wire::put_str(out, digest);
  }
  wire::put_u32(out, static_cast<std::uint32_t>(entry.outputs.size()));
  for (const CachedOutput& output : entry.outputs) {
    wire::put_str(out, output.path);
    wire::put_str(out, output.content);
    wire::put_u32(out, output.mode);
  }
  out += Sha256::hex_digest(out);
  return out;
}

std::optional<CacheEntry> deserialize_entry(std::string_view encoded) {
  if (encoded.size() < kEntryTrailerSize) return std::nullopt;
  const std::string_view payload = encoded.substr(0, encoded.size() - kEntryTrailerSize);
  const std::string_view trailer = encoded.substr(encoded.size() - kEntryTrailerSize);
  if (Sha256::hex_digest(payload) != trailer) return std::nullopt;
  wire::Reader reader{payload};
  CacheEntry entry;
  const std::uint32_t inputs = reader.u32();
  for (std::uint32_t i = 0; i < inputs && reader.ok; ++i) {
    std::string path = reader.str();
    std::string digest = reader.str();
    entry.input_digests.emplace(std::move(path), std::move(digest));
  }
  const std::uint32_t outputs = reader.u32();
  for (std::uint32_t i = 0; i < outputs && reader.ok; ++i) {
    CachedOutput output;
    output.path = reader.str();
    output.content = reader.str();
    output.mode = reader.u32();
    entry.outputs.push_back(std::move(output));
  }
  if (!reader.ok || !reader.at_end()) return std::nullopt;
  return entry;
}

/// True when every manifest input still has the digest recorded at store time.
bool manifest_matches(const CacheEntry& entry, const CompileCache::DigestFn& digest_of) {
  for (const auto& [path, digest] : entry.input_digests) {
    if (digest_of(path) != digest) return false;
  }
  return true;
}

}  // namespace

std::string CacheKey::digest() const {
  std::string buffer;
  append_field(buffer, toolchain_id);
  append_field(buffer, target_arch);
  append_field(buffer, cwd);
  buffer += std::to_string(argv.size());
  buffer += ';';
  for (const std::string& arg : argv) append_field(buffer, arg);
  return Sha256::hex_digest(buffer);
}

std::shared_ptr<const CacheEntry> CompileCache::fetch_remote(
    const std::string& key_digest) const {
  std::shared_ptr<store::KvStore> backing;
  std::string backing_key;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (backing_ == nullptr) return nullptr;
    backing = backing_;
    backing_key = prefix_ + key_digest;
  }
  auto value = backing->get(backing_key);
  if (!value.ok()) return nullptr;
  std::optional<CacheEntry> entry = deserialize_entry(value.value());
  if (!entry.has_value()) return nullptr;  // torn/corrupt: degrade to a miss
  return std::make_shared<const CacheEntry>(std::move(*entry));
}

std::shared_ptr<const CacheEntry> CompileCache::lookup(const std::string& key_digest,
                                                       const DigestFn& digest_of) const {
  std::shared_ptr<const CacheEntry> candidate;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto found = entries_.find(key_digest);
    if (found != entries_.end()) candidate = found->second;
  }
  // Verify the input manifest with no lock held: digest_of may do real work.
  bool from_remote = false;
  if (candidate == nullptr || !manifest_matches(*candidate, digest_of)) {
    // Absent or stale locally: another replica sharing the backing may have
    // stored the entry these inputs match.
    candidate = fetch_remote(key_digest);
    if (candidate != nullptr && manifest_matches(*candidate, digest_of)) {
      from_remote = true;
      // Adopt the entry locally so the next lookup hits without the round trip.
      std::lock_guard<std::shared_mutex> lock(mutex_);
      entries_[key_digest] = candidate;
    } else {
      candidate = nullptr;
    }
  }
  if (candidate) {
    hit_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* hits = hits_.load(std::memory_order_acquire)) hits->add();
    if (from_remote) {
      remote_hit_count_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Counter* remote = remote_hits_.load(std::memory_order_acquire)) {
        remote->add();
      }
    }
  } else {
    miss_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* misses = misses_.load(std::memory_order_acquire)) {
      misses->add();
    }
  }
  return candidate;
}

void CompileCache::store(const std::string& key_digest, CacheEntry entry) {
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  std::shared_ptr<store::KvStore> backing;
  std::string backing_key;
  {
    std::lock_guard<std::shared_mutex> lock(mutex_);
    entries_[key_digest] = shared;
    store_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* inserts = inserts_.load(std::memory_order_acquire)) {
      inserts->add();
    }
    backing = backing_;
    backing_key = prefix_ + key_digest;
  }
  // Write through outside the lock: serialization copies the (possibly
  // large) outputs and the backing put may hit a real disk. Best effort — a
  // failed put only costs the next process a cache miss.
  if (backing != nullptr) (void)backing->put(backing_key, serialize_entry(*shared));
}

std::size_t CompileCache::attach(std::shared_ptr<store::KvStore> backing,
                                 std::string prefix) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  backing_ = std::move(backing);
  prefix_ = std::move(prefix);
  if (backing_ == nullptr) return 0;
  std::size_t recovered = 0;
  for (const store::KvEntry& persisted : backing_->list(prefix_)) {
    const std::string key = persisted.key.substr(prefix_.size());
    auto value = backing_->get(persisted.key);
    std::optional<CacheEntry> entry;
    if (value.ok()) entry = deserialize_entry(value.value());
    if (!entry.has_value()) {
      // Torn, bit-flipped, or truncated on disk: erase it so the next
      // attach does not re-trip, and degrade to a miss.
      (void)backing_->erase(persisted.key);
      corrupt_count_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Counter* corrupt = corrupt_dropped_.load(std::memory_order_acquire)) {
        corrupt->add();
      }
      continue;
    }
    entries_[key] = std::make_shared<const CacheEntry>(std::move(*entry));
    hydrated_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* hydrated = hydrated_.load(std::memory_order_acquire)) {
      hydrated->add();
    }
    ++recovered;
  }
  return recovered;
}

void CompileCache::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  if (metrics == nullptr) {
    hits_.store(nullptr, std::memory_order_release);
    misses_.store(nullptr, std::memory_order_release);
    remote_hits_.store(nullptr, std::memory_order_release);
    inserts_.store(nullptr, std::memory_order_release);
    hydrated_.store(nullptr, std::memory_order_release);
    corrupt_dropped_.store(nullptr, std::memory_order_release);
    return;
  }
  hits_.store(&metrics->counter("compile_cache.hits"), std::memory_order_release);
  misses_.store(&metrics->counter("compile_cache.misses"), std::memory_order_release);
  remote_hits_.store(&metrics->counter("compile_cache.remote_hits"),
                     std::memory_order_release);
  inserts_.store(&metrics->counter("compile_cache.inserts"),
                 std::memory_order_release);
  hydrated_.store(&metrics->counter("compile_cache.hydrated"),
                  std::memory_order_release);
  corrupt_dropped_.store(&metrics->counter("compile_cache.corrupt_dropped"),
                         std::memory_order_release);
}

CacheStats CompileCache::stats() const {
  CacheStats out;
  out.hits = hit_count_.load(std::memory_order_relaxed);
  out.misses = miss_count_.load(std::memory_order_relaxed);
  out.stores = store_count_.load(std::memory_order_relaxed);
  out.hydrated = hydrated_count_.load(std::memory_order_relaxed);
  out.corrupt_dropped = corrupt_count_.load(std::memory_order_relaxed);
  out.remote_hits = remote_hit_count_.load(std::memory_order_relaxed);
  return out;
}

std::size_t CompileCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace comt::sched
