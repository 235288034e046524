#include "transfer/chunker.hpp"

#include <array>

#include "store/wire.hpp"
#include "support/sha256.hpp"

namespace comt::transfer {
namespace {

/// splitmix64 (Steele et al.) — the generator behind the gear table. Chosen
/// for full 64-bit avalanche from a counter, so every table entry is an
/// independent-looking constant derived from one fixed seed.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The gear table: 256 fixed random constants, one per byte value. The seed
/// is part of the wire protocol — changing it re-chunks the world, so it is
/// pinned here and nowhere configurable.
const std::array<std::uint64_t, 256>& gear_table() {
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> out{};
    std::uint64_t state = 0x636F4D7461696E65ULL;  // "coMtaine"
    for (std::uint64_t& entry : out) entry = splitmix64(state);
    return out;
  }();
  return table;
}

constexpr std::string_view kManifestMagic = "CMCM1";  // coMtainer chunk manifest v1

}  // namespace

Status ChunkerParams::validate() const {
  if (avg_bytes == 0 || (avg_bytes & (avg_bytes - 1)) != 0) {
    return make_error(Errc::invalid_argument,
                      "chunker: avg_bytes must be a nonzero power of two");
  }
  if (min_bytes == 0 || min_bytes > avg_bytes || avg_bytes > max_bytes) {
    return make_error(Errc::invalid_argument,
                      "chunker: need 0 < min_bytes <= avg_bytes <= max_bytes");
  }
  return Status::success();
}

std::vector<std::pair<std::uint64_t, std::uint32_t>> chunk_boundaries(
    std::string_view data, const ChunkerParams& params) {
  const std::array<std::uint64_t, 256>& gear = gear_table();
  const std::uint64_t mask = params.avg_bytes - 1;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remaining = data.size() - start;
    std::size_t cut = remaining;  // the tail is its own (possibly short) chunk
    if (remaining > params.min_bytes) {
      const std::size_t limit = remaining < params.max_bytes ? remaining : params.max_bytes;
      // The hash restarts at every chunk start, so a boundary decision depends
      // only on the ~64 bytes behind it (the shift ages old bytes out of the
      // 64-bit state). That locality is the resync property.
      std::uint64_t hash = 0;
      std::size_t pos = 0;
      cut = limit;
      for (; pos < limit; ++pos) {
        hash = (hash << 1) + gear[static_cast<unsigned char>(data[start + pos])];
        if (pos + 1 >= params.min_bytes && (hash & mask) == 0) {
          cut = pos + 1;
          break;
        }
      }
    }
    out.emplace_back(static_cast<std::uint64_t>(start), static_cast<std::uint32_t>(cut));
    start += cut;
  }
  return out;
}

Result<ChunkManifest> build_manifest(std::string_view blob, const ChunkerParams& params) {
  COMT_TRY_STATUS(params.validate());
  ChunkManifest manifest;
  manifest.blob_digest = "sha256:" + Sha256::hex_digest(blob);
  manifest.total_size = blob.size();
  for (const auto& [offset, size] : chunk_boundaries(blob, params)) {
    ChunkRef ref;
    ref.offset = offset;
    ref.size = size;
    ref.digest = "sha256:" + Sha256::hex_digest(blob.substr(offset, size));
    manifest.chunks.push_back(std::move(ref));
  }
  return manifest;
}

std::string ChunkManifest::serialize() const {
  std::string payload;
  payload.append(kManifestMagic);
  store::wire::put_str(payload, blob_digest);
  store::wire::put_u64(payload, total_size);
  store::wire::put_u32(payload, static_cast<std::uint32_t>(chunks.size()));
  for (const ChunkRef& chunk : chunks) {
    store::wire::put_u64(payload, chunk.offset);
    store::wire::put_u32(payload, chunk.size);
    store::wire::put_str(payload, chunk.digest);
  }
  store::wire::put_u64(payload, store::wire::fnv1a64(
                                    std::string_view(payload).substr(kManifestMagic.size())));
  return payload;
}

Result<ChunkManifest> ChunkManifest::parse(std::string_view bytes) {
  if (bytes.size() < kManifestMagic.size() + 8 ||
      bytes.substr(0, kManifestMagic.size()) != kManifestMagic) {
    return make_error(Errc::corrupt, "chunk manifest: bad magic");
  }
  const std::string_view body =
      bytes.substr(kManifestMagic.size(), bytes.size() - kManifestMagic.size() - 8);
  store::wire::Reader trailer{bytes.substr(bytes.size() - 8)};
  if (store::wire::fnv1a64(body) != trailer.u64()) {
    return make_error(Errc::corrupt, "chunk manifest: checksum mismatch");
  }
  store::wire::Reader reader{body};
  ChunkManifest manifest;
  manifest.blob_digest = reader.str();
  manifest.total_size = reader.u64();
  const std::uint32_t count = reader.u32();
  for (std::uint32_t i = 0; i < count && reader.ok; ++i) {
    ChunkRef chunk;
    chunk.offset = reader.u64();
    chunk.size = reader.u32();
    chunk.digest = reader.str();
    manifest.chunks.push_back(std::move(chunk));
  }
  if (!reader.ok || !reader.at_end()) {
    return make_error(Errc::corrupt, "chunk manifest: truncated");
  }
  return manifest;
}

}  // namespace comt::transfer
