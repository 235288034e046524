// An in-memory OCI image registry: the "repository" box in the paper's
// workflow (Fig. 1/4). It has one way in and one way out: push transfers an
// image (manifest, config, layers) from a local layout into the registry
// store; pull transfers it back out. A transfer hands over the immutable
// blob buffer (oci::Layout::share_blob/adopt_blob) instead of copying it,
// and the receiving side checks every blob it adopts against its
// descriptor; a pull checks them all before it adopts any. A check hashes
// only bytes no one has proven yet: a buffer carries the proof of the hash
// its first check ran (docs/PERFORMANCE.md §11), so a pull of a buffer the
// hub proved when the push brought it in hashes nothing. Blobs are
// content-addressed, so repeated pushes of shared base layers deduplicate.
// With chunk dedup enabled, the same push also lands new blobs as chunks,
// and a pull given a local chunk cache fetches only the chunks that cache
// lacks (the delta protocol of transfer/delta.hpp).
//
// The registry is shared by every tenant of the rebuild service, so all
// operations are thread-safe: mutations (push, remove, gc, fsck) run under
// the writer lock; queries and pulls under the reader lock, which a pull
// holds only to fetch the blobs it needs and releases before checking them.
// What a pull adds to the counters (pulled bytes and the chunk counters)
// moves under a leaf mutex that stats() also takes.
// An optional support::FaultInjector hook lets tests and benchmarks make
// push/pull fail transiently like a real network registry would.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "obs/trace.hpp"
#include "oci/fsck.hpp"
#include "oci/oci.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "transfer/chunkstore.hpp"
#include "transfer/delta.hpp"

namespace comt::registry {

/// Fault-injection sites checked when an injector is attached.
inline constexpr std::string_view kPullFaultSite = "registry.pull";
inline constexpr std::string_view kPushFaultSite = "registry.push";

/// Registry statistics for reporting distribution overhead (Table 3).
struct Stats {
  std::size_t repositories = 0;
  std::size_t blobs = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t pushed_bytes = 0;  ///< bytes actually transferred by pushes
  std::uint64_t pulled_bytes = 0;  ///< bytes actually transferred by pulls
  std::uint64_t reclaimed_bytes = 0;  ///< bytes freed by remove()'s garbage collection
  std::size_t removed_blobs = 0;      ///< blobs freed by remove()'s garbage collection
  // Chunk-dedup accounting, all zero until enable_chunk_dedup(). Wire bytes
  // are framed (possibly compressed) chunk bytes; deduped bytes are the raw
  // bytes reused chunks covered.
  std::uint64_t chunk_bytes_moved = 0;
  std::uint64_t chunk_bytes_deduped = 0;
  std::size_t chunks_moved = 0;
  std::size_t chunks_reused = 0;
};

/// What one image transfer did: the per-blob DeltaReports summed, plus
/// whole-blob dedup (blobs the other side already held in full). Blobs held
/// in full count at the size their descriptor names.
struct ImageDeltaReport {
  std::string reference;            ///< "name:tag"
  std::size_t blobs_total = 0;
  std::size_t blobs_moved = 0;      ///< blobs transferred, whole or as chunks
  std::size_t blobs_reused = 0;     ///< blobs fully present at the other side
  std::uint64_t image_bytes = 0;    ///< logical bytes of every blob in the image
  std::uint64_t bytes_moved = 0;    ///< wire bytes: whole blobs, or framed chunks + manifests
  std::uint64_t bytes_deduped = 0;  ///< raw bytes covered by reuse
  std::size_t chunks_moved = 0;
  std::size_t chunks_reused = 0;
  bool full_push = false;           ///< push: no named base was present at the registry

  double moved_fraction() const {
    return image_bytes == 0 ? 0.0
                            : static_cast<double>(bytes_moved) /
                                  static_cast<double>(image_bytes);
  }
};

/// What a push can do beyond moving the image; the defaults are a plain push.
struct PushOptions {
  /// "name:tag" images expected to already be here (the optimized image's
  /// generic parent). They only decide `report->full_push`: a missing or
  /// partially GC'd base degrades to a fuller push, never to a failure.
  /// Requires enable_chunk_dedup.
  std::vector<std::string> bases{};
  /// Filled with what the push moved and reused, when non-null.
  ImageDeltaReport* report = nullptr;
  /// The "registry.push" span opens under this.
  obs::SpanId parent = obs::kNoSpan;
};

/// What a pull can do beyond moving the image; the defaults are a plain pull.
struct PullOptions {
  /// The puller's own chunk cache, hydrated by earlier pulls: each blob the
  /// registry holds as chunks is reassembled from the chunks this cache
  /// lacks plus those it holds. Requires enable_chunk_dedup.
  transfer::ChunkStore* local_chunks = nullptr;
  /// Filled with what the pull moved and reused, when non-null.
  ImageDeltaReport* report = nullptr;
  /// The "registry.pull" span opens under this.
  obs::SpanId parent = obs::kNoSpan;
};

class Registry {
 public:
  /// Re-homes the backing layout onto `backend` and rebuilds the reference
  /// map from the index it carries, making the registry durable: every pushed
  /// blob and reference writes through from here on. Blobs the registry
  /// already holds migrate in. Call before sharing the registry.
  Status attach(std::shared_ptr<store::KvStore> backend);

  /// Opens the registry directly on an OCI layout directory (an unframed
  /// store::DiskStore over `directory`): existing images become servable,
  /// new pushes land as spec-shaped files. Created lazily if missing.
  Status open_directory(const std::string& directory);

  /// Pushes the image tagged `local_tag` in `source` under "name:tag".
  /// Only blobs the registry does not already hold are "transferred"; each
  /// must match its digest, or the push fails with Errc::corrupt and the
  /// reference is not written. On an attached registry, a push or remove
  /// whose index.json write fails returns that error and leaves the
  /// references as they were; fsck repair keeps a tag it could not cut as a
  /// remaining finding. With chunk dedup enabled, each new blob
  /// moves only the chunks the chunk store is missing. Passing
  /// `options.bases` without chunk dedup is Errc::unsupported.
  Status push(const oci::Layout& source, std::string_view local_tag,
              std::string_view name, std::string_view tag, const PushOptions& options = {});

  /// Pulls "name:tag" into `destination`, tagging it `local_tag`. Each blob
  /// `destination` lacks is the hub's buffer, or, when
  /// `options.local_chunks` is given and the chunk store holds the blob,
  /// its bytes reassembled from chunks. Every such blob is checked against
  /// its digest before any is adopted (a hub buffer by its proof, reassembled
  /// bytes by the reassembly's own check): a damaged hub blob or chunk fails
  /// the pull with Errc::corrupt naming the blob's digest and leaves
  /// `destination` unchanged. The manifest is the hub's buffer, checked
  /// before it is parsed, then adopted and tagged as it is: `destination`
  /// holds the hub's exact bytes and digest and shares the hub's parse.
  /// Passing `options.local_chunks` without chunk dedup is
  /// Errc::unsupported.
  Status pull(std::string_view name, std::string_view tag, oci::Layout& destination,
              std::string_view local_tag, const PullOptions& options = {}) const;

  /// Turns on chunk-level dedup: every push additionally lands the image's
  /// blobs in `chunks` (content-defined chunks + manifests), and pushed_bytes
  /// counts chunk wire traffic instead of whole blobs for new content. Blobs
  /// pushed before dedup was enabled are chunked lazily the next time a push
  /// touches them, if their bytes still match their digest, so pre-existing
  /// images become usable delta bases; a damaged one is left for fsck. The
  /// chunk store's backend is the distribution substrate — hand it a
  /// RemoteStore and chunk movement rides that store's retry/breaker
  /// machinery. Wire up before sharing the registry.
  void enable_chunk_dedup(std::shared_ptr<transfer::ChunkStore> chunks);
  const std::shared_ptr<transfer::ChunkStore>& chunk_store() const { return chunks_; }

  bool has(std::string_view name, std::string_view tag) const;

  /// Manifest digest of "name:tag" — the stable identity of the pushed image
  /// (the rebuild service coalesces concurrent requests on it).
  Result<oci::Digest> resolve(std::string_view name, std::string_view tag) const;

  /// Every "name:tag" reference, sorted.
  std::vector<std::string> list() const;

  /// Drops "name:tag" and garbage-collects every blob no remaining reference
  /// reaches (manifests, configs, layers). Shared blobs survive as long as
  /// any reference still uses them. Reclaimed bytes/blobs are counted in
  /// Stats.
  Status remove(std::string_view name, std::string_view tag);

  /// Garbage-collects every blob no reference (and no pin) reaches, without
  /// dropping any reference. Reclaimed bytes/blobs are counted in Stats.
  Status gc();

  /// Pins every blob "name:tag" reaches (manifest, config, layers) against
  /// remove()/gc() reclamation. Pins are refcounted per blob. A journaled
  /// rebuild pins its source image so a concurrent remove of the tag cannot
  /// sweep blobs a crash-resume would still need.
  Status pin(std::string_view name, std::string_view tag);

  /// Releases the pins taken by a matching pin() call.
  Status unpin(std::string_view name, std::string_view tag);

  /// Raw blob access for fsck repair: the registry acts as the origin that
  /// re-supplies true bytes for a damaged local layout.
  Result<std::string> fetch_blob(const oci::Digest& digest) const;

  /// Integrity-checks the backing store. With `repair`, heals what it can
  /// (refetching from `origin` when provided) and prunes references whose
  /// manifests are unrecoverable.
  oci::FsckReport fsck(bool repair = false, const oci::BlobFetcher& origin = {});

  Stats stats() const;

  /// Attaches a fault injector: push/pull check kPushFaultSite/kPullFaultSite
  /// before touching the store, and the backing store checks
  /// oci::kBlobPutSite on every blob write (torn-push injection). Pass
  /// nullptr to detach. Not synchronized with concurrent operations — wire it
  /// up before sharing the registry.
  void set_fault_injector(support::FaultInjector* faults) {
    faults_ = faults;
    store_.set_fault_injector(faults);
  }

  /// Attaches observability: push/pull/gc/fsck each emit a span
  /// ("registry.<op>"; push and pull under their options' `parent`, with
  /// the chunk store's "transfer.push"/"transfer.pull" spans under them;
  /// the others at the root) and bump "registry.<op>s" counters;
  /// transferred bytes go to "registry.pulled_bytes"/"registry.pushed_bytes".
  /// Either pointer may be nullptr. Not synchronized with concurrent
  /// operations — wire it up before sharing the registry.
  void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  Status sweep_locked();
  /// Adopts `source`'s config or layer blob, or counts the registry's copy
  /// as reused; the chunk store's "transfer.push" span opens under `parent`.
  Status ingest_blob_locked(const oci::Layout& source, const oci::Descriptor& blob,
                            ImageDeltaReport* report, obs::SpanId parent);
  /// Adopts `source`'s manifest blob `digest`, counting it as moved when the
  /// registry does not hold it yet.
  Status ingest_manifest_locked(const oci::Layout& source, const oci::Digest& digest,
                                ImageDeltaReport* report);

  mutable std::shared_mutex mutex_;
  oci::Layout store_;
  std::map<std::string, oci::Digest> references_;  // "name:tag" -> manifest
  std::shared_ptr<transfer::ChunkStore> chunks_;
  /// Written under the writer lock, except what a pull adds (pulled_bytes
  /// and the chunk counters): a pull adds under the reader lock plus
  /// stats_mutex_ (a leaf: nothing is locked while it is held), and stats()
  /// reads under both.
  mutable Stats transfer_;
  mutable std::mutex stats_mutex_;
  support::FaultInjector* faults_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* pulls_ = nullptr;
  obs::Counter* pushes_ = nullptr;
  obs::Counter* gcs_ = nullptr;
  obs::Counter* fscks_ = nullptr;
  obs::Counter* pulled_bytes_ = nullptr;
  obs::Counter* pushed_bytes_ = nullptr;
};

}  // namespace comt::registry
