// Content-addressed view over a KvStore: values are keyed by their own
// SHA-256 ("sha256:<hex>" → "<prefix>sha256/<hex>", the OCI blobs/ layout).
// put() digests, get() re-digests and refuses to return bytes that no longer
// match their address — the store-level analogue of what oci::Layout::fsck
// checks. The escape hatches (get_unverified, put_at) exist for exactly the
// callers that need to see or create damaged state: fsck walks corrupt
// blobs, and fault injection plants torn ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/store.hpp"

namespace comt::store {

class CasStore {
 public:
  /// Addresses content under `prefix` in `backend` (e.g. "blobs/" for an OCI
  /// layout). The backend is shared: several CAS views and other keyspaces
  /// (journals, cache entries) can live in one store.
  explicit CasStore(std::shared_ptr<KvStore> backend, std::string prefix = "");

  /// Stores `bytes` and returns its content address "sha256:<hex>".
  Result<std::string> put(std::string bytes);

  /// Bytes stored under `digest`, verified: Errc::corrupt when the stored
  /// content no longer hashes to its address.
  Result<std::string> get(std::string_view digest) const;

  /// Bytes stored under `digest` with no verification — fsck reads damaged
  /// blobs through this to classify them.
  Result<std::string> get_unverified(std::string_view digest) const;

  /// Stores `bytes` under `digest` without hashing. This is how torn or
  /// bit-rotted state enters a store in tests, and how a caller that already
  /// trusts digest↔bytes (a layout copy) avoids re-hashing.
  Status put_at(std::string_view digest, std::string bytes);

  /// get_unverified() and put_at() as immutable shared buffers
  /// (KvStore::get_shared/put_shared): over a MemStore, a blob moves between
  /// stores without its bytes being copied.
  Result<std::shared_ptr<const std::string>> get_shared(std::string_view digest) const;
  Status put_shared_at(std::string_view digest, std::shared_ptr<const std::string> bytes);

  bool contains(std::string_view digest) const;

  /// Drops `digest`. Returns the stored size in bytes, 0 when absent.
  std::uint64_t erase(std::string_view digest);

  /// Stored size of `digest` in bytes, Errc::not_found when absent.
  Result<std::uint64_t> size(std::string_view digest) const;

  /// Every stored content address, sorted.
  std::vector<std::string> digests() const;

  std::size_t count() const;
  std::uint64_t total_bytes() const;

  KvStore& backend() { return *backend_; }
  const KvStore& backend() const { return *backend_; }
  const std::shared_ptr<KvStore>& backend_ptr() const { return backend_; }

 private:
  Result<std::string> key_for(std::string_view digest) const;

  std::shared_ptr<KvStore> backend_;
  std::string prefix_;
};

}  // namespace comt::store
