// The delta push/pull protocol: move an image blob between two chunk stores
// by shipping only the chunks the other side does not already hold. The
// canonical coMtainer use is pushing an optimized child image to a node that
// already has the generic parent: the chunk-set difference against the base
// manifests is small (the recompiled layers share most of their tar content
// with the generic ones), so the wire moves a fraction of the blob.
//
// Both directions degrade gracefully. A destination that never saw the base
// (or garbage-collected some of its chunks) simply misses more per-chunk
// `contains` probes and the transfer converges to a full push — correctness
// never depends on the base actually being present. Every reassembly is
// verified against the whole-blob SHA-256, so a torn transfer surfaces as
// Errc::corrupt at pull time and a re-push heals it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "support/error.hpp"
#include "transfer/chunker.hpp"
#include "transfer/chunkstore.hpp"

namespace comt::transfer {

/// What one delta transfer did, for accounting and the benches.
struct DeltaReport {
  std::string blob_digest;
  std::uint64_t blob_bytes = 0;     ///< logical size of the blob
  std::size_t chunks_total = 0;
  std::size_t chunks_moved = 0;     ///< chunks actually sent over the wire
  std::size_t chunks_reused = 0;    ///< chunks the receiver already held
  std::uint64_t bytes_moved = 0;    ///< framed chunk bytes + manifest bytes on the wire
  std::uint64_t bytes_deduped = 0;  ///< raw bytes covered by reused chunks
  bool full_push = false;  ///< no usable base manifest at the destination

  double moved_fraction() const {
    return blob_bytes == 0 ? 0.0
                           : static_cast<double>(bytes_moved) /
                                 static_cast<double>(blob_bytes);
  }
};

/// Pushes `blob` into `destination`, deduplicating against whatever chunks it
/// already holds. `base_blob_digests` names blobs expected at the destination
/// (the generic parent's layers); they only inform the `full_push` flag — the
/// per-chunk probes are authoritative, so a missing or partially GC'd base
/// degrades to moving more chunks, never to a wrong blob. Emits a
/// "transfer.push" span under `parent` on the destination's tracer and bumps
/// its "transfer.bytes_moved" counter by the wire bytes.
Result<DeltaReport> push_delta(const std::string& blob,
                               const std::vector<std::string>& base_blob_digests,
                               ChunkStore& destination, obs::SpanId parent = obs::kNoSpan);

/// Pulls `blob_digest` from `source` into `local`, fetching only the chunks
/// `local` is missing, reassembling, and verifying the whole-blob digest.
/// On success the blob is fully materialized in `local` (chunks + manifest)
/// and, when `blob_out` is non-null, its bytes, proven to hash to
/// `blob_digest`, are returned there. Emits a
/// "transfer.pull" span under `parent` on the source's tracer.
Result<DeltaReport> pull_delta(const ChunkStore& source, std::string_view blob_digest,
                               ChunkStore& local, std::string* blob_out = nullptr,
                               obs::SpanId parent = obs::kNoSpan);

}  // namespace comt::transfer
