#include "store/cas.hpp"

#include "support/sha256.hpp"

namespace comt::store {
namespace {

constexpr std::string_view kAlgorithm = "sha256";

}  // namespace

CasStore::CasStore(std::shared_ptr<KvStore> backend, std::string prefix)
    : backend_(std::move(backend)), prefix_(std::move(prefix)) {
  COMT_ASSERT(backend_ != nullptr, "cas: null backend");
}

Result<std::string> CasStore::key_for(std::string_view digest) const {
  // "sha256:<hex>" → "<prefix>sha256/<hex>", the OCI blobs directory shape.
  const std::size_t colon = digest.find(':');
  if (colon == std::string_view::npos || digest.substr(0, colon) != kAlgorithm ||
      colon + 1 == digest.size()) {
    return make_error(Errc::invalid_argument, "malformed digest: " + std::string(digest));
  }
  std::string key = prefix_;
  key += kAlgorithm;
  key.push_back('/');
  key += digest.substr(colon + 1);
  return key;
}

Result<std::string> CasStore::put(std::string bytes) {
  std::string digest = std::string(kAlgorithm) + ":" + Sha256::hex_digest(bytes);
  COMT_TRY(std::string key, key_for(digest));
  COMT_TRY_STATUS(backend_->put(key, std::move(bytes)));
  return digest;
}

Result<std::string> CasStore::get(std::string_view digest) const {
  COMT_TRY(std::string bytes, get_unverified(digest));
  if (std::string(kAlgorithm) + ":" + Sha256::hex_digest(bytes) != digest) {
    return make_error(Errc::corrupt,
                      "blob does not match its digest: " + std::string(digest));
  }
  return bytes;
}

Result<std::string> CasStore::get_unverified(std::string_view digest) const {
  COMT_TRY(std::string key, key_for(digest));
  auto bytes = backend_->get(key);
  if (!bytes.ok() && bytes.error().code == Errc::not_found) {
    return make_error(Errc::not_found, "no such blob: " + std::string(digest));
  }
  return bytes;
}

Status CasStore::put_at(std::string_view digest, std::string bytes) {
  COMT_TRY(std::string key, key_for(digest));
  return backend_->put(key, std::move(bytes));
}

Result<std::shared_ptr<const std::string>> CasStore::get_shared(std::string_view digest) const {
  COMT_TRY(std::string key, key_for(digest));
  auto bytes = backend_->get_shared(key);
  if (!bytes.ok() && bytes.error().code == Errc::not_found) {
    return make_error(Errc::not_found, "no such blob: " + std::string(digest));
  }
  return bytes;
}

Status CasStore::put_shared_at(std::string_view digest,
                               std::shared_ptr<const std::string> bytes) {
  COMT_TRY(std::string key, key_for(digest));
  return backend_->put_shared(key, std::move(bytes));
}

bool CasStore::contains(std::string_view digest) const {
  auto key = key_for(digest);
  return key.ok() && backend_->contains(key.value());
}

std::uint64_t CasStore::erase(std::string_view digest) {
  auto key = key_for(digest);
  if (!key.ok()) return 0;
  auto bytes = backend_->size(key.value());
  if (!bytes.ok()) return 0;
  if (!backend_->erase(key.value()).ok()) return 0;
  return bytes.value();
}

Result<std::uint64_t> CasStore::size(std::string_view digest) const {
  COMT_TRY(std::string key, key_for(digest));
  auto bytes = backend_->size(key);
  if (!bytes.ok() && bytes.error().code == Errc::not_found) {
    return make_error(Errc::not_found, "no such blob: " + std::string(digest));
  }
  return bytes;
}

std::vector<std::string> CasStore::digests() const {
  const std::string want = prefix_ + std::string(kAlgorithm) + "/";
  std::vector<std::string> out;
  for (const KvEntry& entry : backend_->list(want)) {
    const std::string_view hex = std::string_view(entry.key).substr(want.size());
    if (hex.empty() || hex.find('/') != std::string_view::npos) continue;
    out.push_back(std::string(kAlgorithm) + ":" + std::string(hex));
  }
  return out;
}

std::size_t CasStore::count() const { return digests().size(); }

std::uint64_t CasStore::total_bytes() const {
  const std::string want = prefix_ + std::string(kAlgorithm) + "/";
  std::uint64_t total = 0;
  for (const KvEntry& entry : backend_->list(want)) total += entry.size;
  return total;
}

}  // namespace comt::store
