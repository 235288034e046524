// The chunk-level dedup store: the new layer between the content-addressed
// substrate and the wire. Where CasStore keys whole blobs by their digest, a
// ChunkStore splits every blob with the content-defined chunker and stores
//
//   <prefix>chunk/sha256/<hex>     — one framed chunk (codec.hpp frame)
//   <prefix>manifest/sha256/<hex>  — the blob's chunk manifest
//
// in any KvStore backend. Two blobs that share content share chunks: putting
// an optimized image layer next to its generic parent stores only the chunks
// the recompile actually changed. get_blob reassembles from the manifest and
// verifies the whole-blob SHA-256, so a torn chunk upload or storage bit-flip
// is always Errc::corrupt, never a silently wrong image.
//
// Garbage collection is refcount-per-manifest: a chunk lives while any stored
// manifest references it. The refcount index is in-memory, hydrated from the
// stored manifests at construction (like the registry's reference map), so a
// store reopened over a DiskStore directory garbage-collects correctly.
// Blob-level pins (refcounted, like oci::Layout pins) exclude a blob's chunks
// from erase_blob entirely — the registry pins the images journaled rebuilds
// still name, so a crash-resume never loses chunks to a concurrent GC.
//
// Thread-safe: all index mutations run under one mutex; backend puts of chunk
// bytes are idempotent (content-addressed), so concurrent pushes of shared
// content are safe in any order.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "transfer/chunker.hpp"

namespace comt::transfer {

class ChunkStore {
 public:
  struct Options {
    ChunkerParams params;
    /// Keyspace prefix inside the backend; several ChunkStores and other
    /// keyspaces can share one store.
    std::string prefix = "transfer/";
  };

  /// Opens (or creates) a chunk store over `backend`, hydrating the refcount
  /// index from any manifests already stored. Constructing over a RemoteStore
  /// makes every chunk move a wire transfer riding that store's retry/breaker
  /// machinery.
  explicit ChunkStore(std::shared_ptr<store::KvStore> backend);
  ChunkStore(std::shared_ptr<store::KvStore> backend, Options options);

  // ---- blob level -----------------------------------------------------------

  /// Chunks `bytes`, stores only the chunks the backend does not already
  /// hold, writes the manifest, and returns it. Idempotent per blob: re-putting
  /// an already-stored blob counts every chunk as a dedup hit and does not
  /// double-reference anything.
  Result<ChunkManifest> put_blob(const std::string& bytes);

  /// Reassembles the blob from its manifest and verifies the whole-blob
  /// digest. Any damaged/missing chunk or a failed whole-blob check is
  /// Errc::corrupt (missing chunk: not_found).
  Result<std::string> get_blob(std::string_view blob_digest) const;

  bool contains_blob(std::string_view blob_digest) const;
  /// The stored manifest, shared with the index rather than copied: a
  /// manifest never changes once stored.
  Result<std::shared_ptr<const ChunkManifest>> manifest(std::string_view blob_digest) const;

  /// Drops the blob's manifest and every chunk whose refcount hits zero.
  /// Returns the framed chunk bytes freed; 0 when absent. A pinned blob is
  /// not erased (returns 0 and keeps everything).
  Result<std::uint64_t> erase_blob(std::string_view blob_digest);

  /// Refcounted pin against erase_blob — the chunk-level twin of
  /// oci::Layout::pin_blob, taken by the registry for journaled rebuilds.
  void pin_blob(std::string_view blob_digest);
  void unpin_blob(std::string_view blob_digest);
  bool is_pinned(std::string_view blob_digest) const;

  // ---- chunk level (the delta protocol's entry points) ----------------------

  bool contains_chunk(std::string_view chunk_digest) const;

  /// Stores one chunk, framed by frame_chunk. Returns the framed (wire) size
  /// written; an already-present chunk is left alone and returns 0.
  Result<std::uint64_t> put_chunk(std::string_view chunk_digest, std::string_view raw);

  /// Unframes, decodes and digest-verifies one chunk. `wire_bytes`, when
  /// non-null, receives the framed stored size (what a transfer moves).
  Result<std::string> get_chunk(std::string_view chunk_digest,
                                std::uint64_t* wire_bytes = nullptr) const;

  /// Unconditionally re-writes one chunk, healing a torn or bit-flipped
  /// stored frame that put_chunk's dedup probe would otherwise keep trusting.
  /// `raw` must hash to `chunk_digest`. Returns the framed size written.
  Result<std::uint64_t> repair_chunk(std::string_view chunk_digest, std::string_view raw);

  /// Records `manifest`, bumping chunk refcounts when it is new. The chunks
  /// themselves must already be stored (push moves chunks first).
  Status put_manifest(const ChunkManifest& manifest);

  // ---- accounting -----------------------------------------------------------

  /// Framed bytes of every stored chunk — the store's physical footprint.
  std::uint64_t stored_chunk_bytes() const;
  /// Sum of every stored manifest's blob size — the logical bytes served.
  std::uint64_t logical_bytes() const;
  /// logical / stored; 1.0 for an empty store. > 1 means dedup+compression
  /// beat whole-blob storage.
  double dedup_ratio() const;
  std::size_t chunk_count() const;
  std::size_t blob_count() const;

  /// Dedup hits/misses and deduped bytes observed by this store object.
  std::uint64_t chunks_hit() const;
  std::uint64_t chunks_miss() const;
  std::uint64_t bytes_deduped() const;
  /// Wire bytes delta transfers moved into/out of this store (see delta.hpp).
  std::uint64_t bytes_moved() const;
  /// Called by the delta protocol after a transfer completes.
  void note_transfer_moved(std::uint64_t wire_bytes) const;

  const ChunkerParams& params() const { return options_.params; }
  store::KvStore& backend() { return *backend_; }
  const std::shared_ptr<store::KvStore>& backend_ptr() const { return backend_; }

  /// Attaches "transfer.chunks_hit"/"transfer.chunks_miss"/
  /// "transfer.bytes_deduped"/"transfer.bytes_stored" counters. Pass nullptrs
  /// to detach. Wire up before sharing.
  void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics);
  obs::Tracer* tracer() const { return tracer_; }

 private:
  std::string chunk_key(std::string_view chunk_digest) const;
  std::string manifest_key(std::string_view blob_digest) const;
  static Result<std::string> digest_hex(std::string_view digest);
  void note_hit(std::uint64_t raw_bytes) const;
  void note_miss(std::uint64_t stored_bytes) const;
  Status put_manifest_locked(const ChunkManifest& manifest);

  std::shared_ptr<store::KvStore> backend_;
  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, int, std::less<>> refcounts_;  ///< chunk digest → #manifests
  /// blob digest → manifest
  std::map<std::string, std::shared_ptr<const ChunkManifest>, std::less<>> manifests_;
  std::map<std::string, int, std::less<>> pins_;       ///< blob digest → pin count
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> deduped_bytes_{0};
  mutable std::atomic<std::uint64_t> moved_bytes_{0};
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
  obs::Counter* deduped_counter_ = nullptr;
  obs::Counter* stored_counter_ = nullptr;
  obs::Counter* moved_counter_ = nullptr;
};

}  // namespace comt::transfer
