// Content-defined chunking: the sub-blob granularity underneath delta image
// distribution. A rolling Gear hash (one shift-add per byte over a fixed
// 256-entry random table) decides chunk boundaries from the *content* of a
// ~64-byte sliding window, not from offsets — so inserting a byte near the
// front of a blob shifts only the chunk it lands in and its immediate
// neighbour; every later boundary re-synchronizes and the downstream chunks
// keep their digests. That boundary-shift resistance is what makes two image
// layers that differ by a few recompiled files share almost all of their
// chunks, where fixed-size blocks would share none past the first edit.
//
// The chunker is deterministic by construction: the gear table is generated
// from a fixed seed with splitmix64, boundaries depend only on bytes and
// parameters, and the manifest lists chunks in offset order. Two hosts
// chunking the same blob with the same ChunkerParams always produce the same
// manifest — the property the delta protocol's chunk-set difference rests on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace comt::transfer {

/// Chunk-size bounds. `avg_bytes` must be a power of two (it becomes the
/// boundary mask); min <= avg <= max is required. The defaults target the
/// simulated-image scale (layers of tens to hundreds of KiB): small enough
/// that one recompiled file in a tar layer dirties O(1) chunks, large enough
/// that manifest overhead stays a few percent.
struct ChunkerParams {
  std::size_t min_bytes = 512;
  std::size_t avg_bytes = 2048;
  std::size_t max_bytes = 16384;

  /// Rejects non-power-of-two averages and inverted bounds.
  Status validate() const;

  bool operator==(const ChunkerParams&) const = default;
};

/// One chunk of a blob: where it sits and what it hashes to.
struct ChunkRef {
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  std::string digest;  ///< "sha256:<hex>" of the chunk bytes

  bool operator==(const ChunkRef&) const = default;
};

/// The chunk-level description of one blob: its whole-blob digest (the
/// content address reassembly is verified against), total size, and the
/// ordered chunk list. This is what moves over the wire instead of the blob
/// when the destination already holds most of the chunks.
struct ChunkManifest {
  std::string blob_digest;  ///< "sha256:<hex>" of the whole blob
  std::uint64_t total_size = 0;
  std::vector<ChunkRef> chunks;

  /// Wire encoding: length-framed fields with a trailing fnv1a64 checksum, so
  /// a torn or bit-flipped stored manifest parses as Errc::corrupt instead of
  /// silently describing the wrong chunks.
  std::string serialize() const;
  static Result<ChunkManifest> parse(std::string_view bytes);

  bool operator==(const ChunkManifest&) const = default;
};

/// Chunk boundaries of `data` as (offset, size) pairs, in order. Empty input
/// yields no chunks. Pure function of (data, params).
std::vector<std::pair<std::uint64_t, std::uint32_t>> chunk_boundaries(
    std::string_view data, const ChunkerParams& params);

/// Chunks `blob` and digests every chunk plus the whole blob.
Result<ChunkManifest> build_manifest(std::string_view blob, const ChunkerParams& params);

}  // namespace comt::transfer
