#include "transfer/chunkstore.hpp"

#include <utility>

#include "support/sha256.hpp"
#include "transfer/codec.hpp"

namespace comt::transfer {
namespace {

constexpr std::string_view kAlgorithmPrefix = "sha256:";

}  // namespace

ChunkStore::ChunkStore(std::shared_ptr<store::KvStore> backend)
    : ChunkStore(std::move(backend), Options{}) {}

ChunkStore::ChunkStore(std::shared_ptr<store::KvStore> backend, Options options)
    : backend_(std::move(backend)), options_(std::move(options)) {
  COMT_ASSERT(backend_ != nullptr, "chunk store: null backend");
  COMT_ASSERT(options_.params.validate().ok(), "chunk store: invalid chunker params");
  // Hydrate the refcount index from manifests already in the backend — a
  // reopened DiskStore-backed chunk store must GC exactly like a fresh one.
  // Damaged manifests are skipped; their chunks stay unreferenced and a
  // re-push of the blob heals the manifest under the same key.
  const std::string manifest_prefix = options_.prefix + "manifest/";
  for (const store::KvEntry& entry : backend_->list(manifest_prefix)) {
    auto bytes = backend_->get(entry.key);
    if (!bytes.ok()) continue;
    auto parsed = ChunkManifest::parse(bytes.value());
    if (!parsed.ok()) continue;
    auto manifest = std::make_shared<const ChunkManifest>(std::move(parsed).value());
    for (const ChunkRef& chunk : manifest->chunks) ++refcounts_[chunk.digest];
    manifests_.emplace(manifest->blob_digest, std::move(manifest));
  }
}

Result<std::string> ChunkStore::digest_hex(std::string_view digest) {
  if (digest.size() <= kAlgorithmPrefix.size() ||
      digest.substr(0, kAlgorithmPrefix.size()) != kAlgorithmPrefix) {
    return make_error(Errc::invalid_argument,
                      "chunk store: malformed digest: " + std::string(digest));
  }
  return std::string(digest.substr(kAlgorithmPrefix.size()));
}

std::string ChunkStore::chunk_key(std::string_view chunk_digest) const {
  auto hex = digest_hex(chunk_digest);
  COMT_ASSERT(hex.ok(), "chunk store: malformed chunk digest");
  return options_.prefix + "chunk/sha256/" + hex.value();
}

std::string ChunkStore::manifest_key(std::string_view blob_digest) const {
  auto hex = digest_hex(blob_digest);
  COMT_ASSERT(hex.ok(), "chunk store: malformed blob digest");
  return options_.prefix + "manifest/sha256/" + hex.value();
}

void ChunkStore::note_hit(std::uint64_t raw_bytes) const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  deduped_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  if (hit_counter_ != nullptr) {
    hit_counter_->add();
    deduped_counter_->add(raw_bytes);
  }
}

void ChunkStore::note_miss(std::uint64_t stored_bytes) const {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (miss_counter_ != nullptr) {
    miss_counter_->add();
    stored_counter_->add(stored_bytes);
  }
}

Result<ChunkManifest> ChunkStore::put_blob(const std::string& bytes) {
  COMT_TRY(ChunkManifest built, build_manifest(bytes, options_.params));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto existing = manifests_.find(built.blob_digest);
    if (existing != manifests_.end()) {
      // Blob-level idempotence: everything dedups, nothing re-references.
      for (const ChunkRef& chunk : built.chunks) note_hit(chunk.size);
      return *existing->second;
    }
  }
  for (const ChunkRef& chunk : built.chunks) {
    COMT_TRY(std::uint64_t wrote,
             put_chunk(chunk.digest, std::string_view(bytes).substr(chunk.offset, chunk.size)));
    (void)wrote;
  }
  COMT_TRY_STATUS(put_manifest(built));
  return built;
}

Result<std::uint64_t> ChunkStore::put_chunk(std::string_view chunk_digest,
                                            std::string_view raw) {
  COMT_TRY(std::string hex, digest_hex(chunk_digest));
  (void)hex;
  const std::string key = chunk_key(chunk_digest);
  if (backend_->contains(key)) {
    note_hit(raw.size());
    return std::uint64_t{0};
  }
  std::string framed = frame_chunk(raw);
  const std::uint64_t wire = framed.size();
  COMT_TRY_STATUS(backend_->put(key, std::move(framed)));
  note_miss(wire);
  return wire;
}

Result<std::uint64_t> ChunkStore::repair_chunk(std::string_view chunk_digest,
                                               std::string_view raw) {
  COMT_TRY(std::string hex, digest_hex(chunk_digest));
  (void)hex;
  if (std::string(kAlgorithmPrefix) + Sha256::hex_digest(raw) != chunk_digest) {
    return make_error(Errc::invalid_argument,
                      "chunk repair: bytes do not hash to " + std::string(chunk_digest));
  }
  std::string framed = frame_chunk(raw);
  const std::uint64_t wire = framed.size();
  COMT_TRY_STATUS(backend_->put(chunk_key(chunk_digest), std::move(framed)));
  return wire;
}

Result<std::string> ChunkStore::get_chunk(std::string_view chunk_digest,
                                          std::uint64_t* wire_bytes) const {
  COMT_TRY(std::string hex, digest_hex(chunk_digest));
  (void)hex;
  auto framed = backend_->get(chunk_key(chunk_digest));
  if (!framed.ok()) {
    if (framed.error().code == Errc::not_found) {
      return make_error(Errc::not_found, "no such chunk: " + std::string(chunk_digest));
    }
    return framed.error();
  }
  if (wire_bytes != nullptr) *wire_bytes = framed.value().size();
  COMT_TRY(std::string raw, unframe_chunk(chunk_digest, framed.value()));
  if (std::string(kAlgorithmPrefix) + Sha256::hex_digest(raw) != chunk_digest) {
    return make_error(Errc::corrupt,
                      "chunk does not match its digest: " + std::string(chunk_digest));
  }
  return raw;
}

Status ChunkStore::put_manifest(const ChunkManifest& manifest) {
  std::lock_guard<std::mutex> lock(mutex_);
  return put_manifest_locked(manifest);
}

Status ChunkStore::put_manifest_locked(const ChunkManifest& manifest) {
  if (manifests_.count(manifest.blob_digest) != 0) return Status::success();
  COMT_TRY_STATUS(backend_->put(manifest_key(manifest.blob_digest), manifest.serialize()));
  for (const ChunkRef& chunk : manifest.chunks) ++refcounts_[chunk.digest];
  manifests_.emplace(manifest.blob_digest, std::make_shared<const ChunkManifest>(manifest));
  return Status::success();
}

bool ChunkStore::contains_blob(std::string_view blob_digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifests_.count(std::string(blob_digest)) != 0;
}

bool ChunkStore::contains_chunk(std::string_view chunk_digest) const {
  auto hex = digest_hex(chunk_digest);
  if (!hex.ok()) return false;
  return backend_->contains(chunk_key(chunk_digest));
}

Result<std::shared_ptr<const ChunkManifest>> ChunkStore::manifest(
    std::string_view blob_digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = manifests_.find(std::string(blob_digest));
  if (it == manifests_.end()) {
    return make_error(Errc::not_found, "no manifest for blob: " + std::string(blob_digest));
  }
  return it->second;
}

Result<std::string> ChunkStore::get_blob(std::string_view blob_digest) const {
  COMT_TRY(std::shared_ptr<const ChunkManifest> stored, manifest(blob_digest));
  std::string out;
  out.reserve(stored->total_size);
  for (const ChunkRef& chunk : stored->chunks) {
    if (chunk.offset != out.size()) {
      return make_error(Errc::corrupt,
                        "chunk manifest offsets inconsistent for " + std::string(blob_digest));
    }
    COMT_TRY(std::string raw, get_chunk(chunk.digest));
    out.append(raw);
  }
  if (std::string(kAlgorithmPrefix) + Sha256::hex_digest(out) != blob_digest ||
      out.size() != stored->total_size) {
    return make_error(Errc::corrupt,
                      "reassembled blob does not match its digest: " +
                          std::string(blob_digest));
  }
  return out;
}

Result<std::uint64_t> ChunkStore::erase_blob(std::string_view blob_digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key(blob_digest);
  auto it = manifests_.find(key);
  if (it == manifests_.end()) return std::uint64_t{0};
  if (pins_.count(key) != 0) return std::uint64_t{0};  // journaled rebuild still needs it
  std::uint64_t freed = 0;
  // Dedup within one manifest: a chunk listed twice holds one reference.
  std::set<std::string> distinct;
  for (const ChunkRef& chunk : it->second->chunks) distinct.insert(chunk.digest);
  for (const std::string& digest : distinct) {
    auto ref = refcounts_.find(digest);
    if (ref == refcounts_.end()) continue;
    if (--ref->second > 0) continue;
    refcounts_.erase(ref);
    const std::string ckey = chunk_key(digest);
    auto size = backend_->size(ckey);
    if (size.ok()) freed += size.value();
    COMT_TRY_STATUS(backend_->erase(ckey));
  }
  COMT_TRY_STATUS(backend_->erase(manifest_key(key)));
  manifests_.erase(it);
  return freed;
}

void ChunkStore::pin_blob(std::string_view blob_digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++pins_[std::string(blob_digest)];
}

void ChunkStore::unpin_blob(std::string_view blob_digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pins_.find(std::string(blob_digest));
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

bool ChunkStore::is_pinned(std::string_view blob_digest) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pins_.count(std::string(blob_digest)) != 0;
}

std::uint64_t ChunkStore::stored_chunk_bytes() const {
  std::uint64_t total = 0;
  for (const store::KvEntry& entry : backend_->list(options_.prefix + "chunk/")) {
    total += entry.size;
  }
  return total;
}

std::uint64_t ChunkStore::logical_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [digest, manifest] : manifests_) total += manifest->total_size;
  return total;
}

double ChunkStore::dedup_ratio() const {
  const std::uint64_t stored = stored_chunk_bytes();
  if (stored == 0) return 1.0;
  return static_cast<double>(logical_bytes()) / static_cast<double>(stored);
}

std::size_t ChunkStore::chunk_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refcounts_.size();
}

std::size_t ChunkStore::blob_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifests_.size();
}

std::uint64_t ChunkStore::chunks_hit() const {
  return hits_.load(std::memory_order_relaxed);
}

std::uint64_t ChunkStore::chunks_miss() const {
  return misses_.load(std::memory_order_relaxed);
}

std::uint64_t ChunkStore::bytes_deduped() const {
  return deduped_bytes_.load(std::memory_order_relaxed);
}

std::uint64_t ChunkStore::bytes_moved() const {
  return moved_bytes_.load(std::memory_order_relaxed);
}

void ChunkStore::note_transfer_moved(std::uint64_t wire_bytes) const {
  moved_bytes_.fetch_add(wire_bytes, std::memory_order_relaxed);
  if (moved_counter_ != nullptr) moved_counter_->add(wire_bytes);
}

void ChunkStore::set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (metrics == nullptr) {
    hit_counter_ = miss_counter_ = deduped_counter_ = stored_counter_ = nullptr;
    moved_counter_ = nullptr;
    return;
  }
  hit_counter_ = &metrics->counter("transfer.chunks_hit");
  miss_counter_ = &metrics->counter("transfer.chunks_miss");
  deduped_counter_ = &metrics->counter("transfer.bytes_deduped");
  stored_counter_ = &metrics->counter("transfer.bytes_stored");
  moved_counter_ = &metrics->counter("transfer.bytes_moved");
}

}  // namespace comt::transfer
