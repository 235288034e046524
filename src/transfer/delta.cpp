#include "transfer/delta.hpp"

#include "obs/trace.hpp"
#include "support/sha256.hpp"

namespace comt::transfer {

Result<DeltaReport> push_delta(const std::string& blob,
                               const std::vector<std::string>& base_blob_digests,
                               ChunkStore& destination, obs::SpanId parent) {
  COMT_TRY(ChunkManifest manifest, build_manifest(blob, destination.params()));

  obs::Span span = obs::maybe_span(destination.tracer(), "transfer.push", parent, "transfer");
  span.annotate("blob", manifest.blob_digest);
  span.annotate("blob_bytes", manifest.total_size);

  DeltaReport report;
  report.blob_digest = manifest.blob_digest;
  report.blob_bytes = manifest.total_size;
  report.chunks_total = manifest.chunks.size();

  // The base manifests only decide whether this counts as a delta at all —
  // the per-chunk probes below are what actually skip bytes, so a base that
  // was never pushed or whose chunks were GC'd degrades to a fuller push.
  bool any_base = false;
  for (const std::string& base : base_blob_digests) {
    if (destination.contains_blob(base)) any_base = true;
  }
  report.full_push = !any_base;

  std::vector<CodecId> advertised = destination.advertised_codecs();
  if (advertised.empty()) advertised = destination.codecs();
  COMT_TRY(report.codec, negotiate(supported_codecs(), advertised));
  span.annotate("codec", codec_name(report.codec));

  for (const ChunkRef& chunk : manifest.chunks) {
    COMT_TRY(std::uint64_t wire,
             destination.put_chunk(chunk.digest,
                                   std::string_view(blob).substr(chunk.offset, chunk.size),
                                   report.codec));
    if (wire == 0) {
      ++report.chunks_reused;
      report.bytes_deduped += chunk.size;
    } else {
      ++report.chunks_moved;
      report.bytes_moved += wire;
    }
  }
  // The manifest itself rides the wire too; a delta that moves zero chunks
  // still costs its manifest.
  report.bytes_moved += manifest.serialize().size();
  COMT_TRY_STATUS(destination.put_manifest(manifest));
  destination.note_transfer_moved(report.bytes_moved);

  span.annotate("chunks_moved", static_cast<std::uint64_t>(report.chunks_moved));
  span.annotate("chunks_reused", static_cast<std::uint64_t>(report.chunks_reused));
  span.annotate("bytes_moved", report.bytes_moved);
  span.annotate("bytes_deduped", report.bytes_deduped);
  span.annotate("full_push", report.full_push ? "true" : "false");
  return report;
}

Result<DeltaReport> pull_delta(const ChunkStore& source, std::string_view blob_digest,
                               ChunkStore& local, std::string* blob_out,
                               obs::SpanId parent) {
  COMT_TRY(std::shared_ptr<const ChunkManifest> stored, source.manifest(blob_digest));
  const ChunkManifest& manifest = *stored;

  obs::Span span = obs::maybe_span(source.tracer(), "transfer.pull", parent, "transfer");
  span.annotate("blob", manifest.blob_digest);
  span.annotate("blob_bytes", manifest.total_size);

  DeltaReport report;
  report.blob_digest = manifest.blob_digest;
  report.blob_bytes = manifest.total_size;
  report.chunks_total = manifest.chunks.size();

  std::vector<CodecId> advertised = local.advertised_codecs();
  if (advertised.empty()) advertised = local.codecs();
  COMT_TRY(report.codec, negotiate(supported_codecs(), advertised));
  span.annotate("codec", codec_name(report.codec));

  std::string blob;
  blob.reserve(manifest.total_size);
  for (const ChunkRef& chunk : manifest.chunks) {
    if (chunk.offset != blob.size()) {
      return make_error(Errc::corrupt,
                        "delta pull: manifest offsets inconsistent for " +
                            manifest.blob_digest);
    }
    std::string raw;
    if (local.contains_chunk(chunk.digest)) {
      // Already held locally — reuse, nothing crosses the wire. A locally
      // corrupted copy surfaces here and fails the pull rather than poisoning
      // the reassembly.
      COMT_TRY(raw, local.get_chunk(chunk.digest));
      ++report.chunks_reused;
      report.bytes_deduped += chunk.size;
    } else {
      std::uint64_t wire = 0;
      COMT_TRY(raw, source.get_chunk(chunk.digest, &wire));
      ++report.chunks_moved;
      report.bytes_moved += wire;
      COMT_TRY(std::uint64_t wrote, local.put_chunk(chunk.digest, raw, report.codec));
      (void)wrote;
    }
    blob.append(raw);
  }
  report.full_push = report.chunks_reused == 0;
  report.bytes_moved += manifest.serialize().size();

  // End-to-end proof before anything is trusted: the reassembled bytes must
  // hash to the digest we asked for.
  if ("sha256:" + Sha256::hex_digest(blob) != blob_digest ||
      blob.size() != manifest.total_size) {
    return make_error(Errc::corrupt,
                      "delta pull: reassembled blob does not match " +
                          manifest.blob_digest);
  }
  COMT_TRY_STATUS(local.put_manifest(manifest));
  local.note_transfer_moved(report.bytes_moved);
  if (blob_out != nullptr) *blob_out = std::move(blob);

  span.annotate("chunks_moved", static_cast<std::uint64_t>(report.chunks_moved));
  span.annotate("chunks_reused", static_cast<std::uint64_t>(report.chunks_reused));
  span.annotate("bytes_moved", report.bytes_moved);
  span.annotate("bytes_deduped", report.bytes_deduped);
  return report;
}

}  // namespace comt::transfer
