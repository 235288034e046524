#include "transfer/codec.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "store/wire.hpp"

namespace comt::transfer {
namespace {

// LZ token format (byte-aligned, self-delimiting):
//   op < 0x80  → literal run of op+1 bytes (1..128) follows;
//   op >= 0x80 → match of (op & 0x7F) + kMinMatch bytes at distance d, where
//                d is the following little-endian u16 (1..65535). Matches may
//                overlap their output (d < len), copied byte by byte.
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 127 + kMinMatch;
constexpr std::size_t kWindow = 65535;
constexpr std::size_t kHashBits = 15;

std::uint32_t hash4(const char* p) {
  std::uint32_t v = static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
                    static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
                    static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
                    static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
  return (v * 2654435761u) >> (32 - kHashBits);
}

// The match table: for each hash, the last position that hashed to it. It is
// kept per thread and never cleared, so a call does not build 128 KiB for a
// chunk of a few KiB: a call stores `base + position` and reads an entry
// below its base as empty (an earlier call wrote it), so it finds exactly the
// matches a table freshly filled with "none" would.
struct MatchTable {
  std::vector<std::uint32_t> head = std::vector<std::uint32_t>(std::size_t{1} << kHashBits, 0);
  std::uint32_t base = 1;
};

std::string lz_encode(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() / 2 + 16);
  const std::size_t n = raw.size();
  constexpr std::uint32_t kStampLimit = std::numeric_limits<std::uint32_t>::max();
  thread_local MatchTable table;
  if (n >= kStampLimit - table.base) {
    COMT_ASSERT(n < kStampLimit - 1, "lz codec: chunk too large for a frame");
    std::fill(table.head.begin(), table.head.end(), 0);
    table.base = 1;
  }
  const std::uint32_t base = table.base;
  table.base += static_cast<std::uint32_t>(n);
  std::vector<std::uint32_t>& head = table.head;
  std::size_t i = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t end) {
    std::size_t pos = literal_start;
    while (pos < end) {
      const std::size_t run = std::min<std::size_t>(end - pos, 128);
      out.push_back(static_cast<char>(run - 1));
      out.append(raw.substr(pos, run));
      pos += run;
    }
  };
  while (i + kMinMatch <= n) {
    std::uint32_t& entry = head[hash4(raw.data() + i)];
    const std::int64_t candidate = entry >= base ? std::int64_t{entry - base} : -1;
    entry = base + static_cast<std::uint32_t>(i);
    std::size_t match_len = 0;
    if (candidate >= 0 && i - static_cast<std::size_t>(candidate) <= kWindow) {
      const char* a = raw.data() + candidate;
      const char* b = raw.data() + i;
      const std::size_t limit = std::min(n - i, kMaxMatch);
      std::size_t len = 0;
      while (len < limit && a[len] == b[len]) ++len;
      if (len >= kMinMatch) match_len = len;
    }
    if (match_len == 0) {
      ++i;
      continue;
    }
    flush_literals(i);
    const std::uint16_t distance =
        static_cast<std::uint16_t>(i - static_cast<std::size_t>(candidate));
    out.push_back(static_cast<char>(0x80 | (match_len - kMinMatch)));
    out.push_back(static_cast<char>(distance & 0xFF));
    out.push_back(static_cast<char>(distance >> 8));
    // Seed the table through the matched region so back-to-back repeats of
    // the same data keep finding long matches (capped by kMaxMatch anyway).
    const std::size_t seed_end = std::min(i + match_len, n >= kMinMatch ? n - kMinMatch + 1 : 0);
    for (std::size_t k = i + 1; k < seed_end; ++k) {
      head[hash4(raw.data() + k)] = base + static_cast<std::uint32_t>(k);
    }
    i += match_len;
    literal_start = i;
  }
  flush_literals(n);
  return out;
}

Result<std::string> lz_decode(std::string_view encoded, std::size_t raw_size) {
  std::string out;
  out.reserve(raw_size);
  std::size_t pos = 0;
  while (pos < encoded.size()) {
    const unsigned char op = static_cast<unsigned char>(encoded[pos++]);
    if ((op & 0x80) == 0) {
      const std::size_t run = std::size_t{op} + 1;
      if (pos + run > encoded.size()) {
        return make_error(Errc::corrupt, "lz codec: truncated literal run");
      }
      out.append(encoded.substr(pos, run));
      pos += run;
      continue;
    }
    const std::size_t len = std::size_t{op & 0x7Fu} + kMinMatch;
    if (pos + 2 > encoded.size()) {
      return make_error(Errc::corrupt, "lz codec: truncated match token");
    }
    const std::size_t distance =
        static_cast<std::size_t>(static_cast<unsigned char>(encoded[pos])) |
        static_cast<std::size_t>(static_cast<unsigned char>(encoded[pos + 1])) << 8;
    pos += 2;
    if (distance == 0 || distance > out.size()) {
      return make_error(Errc::corrupt, "lz codec: match distance out of range");
    }
    for (std::size_t k = 0; k < len; ++k) {
      out.push_back(out[out.size() - distance]);  // overlap-safe byte copy
    }
  }
  if (out.size() != raw_size) {
    return make_error(Errc::corrupt, "lz codec: decoded size mismatch");
  }
  return out;
}

}  // namespace

std::string frame_chunk(std::string_view raw) {
  const std::string encoded = lz_encode(raw);
  const bool shrunk = encoded.size() < raw.size();
  const std::string_view payload = shrunk ? std::string_view(encoded) : raw;
  std::string out;
  out.reserve(13 + payload.size());
  out.push_back(static_cast<char>(shrunk ? CodecId::lz : CodecId::identity));
  store::wire::put_u32(out, static_cast<std::uint32_t>(raw.size()));
  store::wire::put_u64(out, store::wire::fnv1a64(raw));
  out.append(payload);
  return out;
}

Result<std::string> unframe_chunk(std::string_view what, std::string_view framed) {
  if (framed.size() < 13) {
    return make_error(Errc::corrupt, "chunk frame torn: " + std::string(what));
  }
  const CodecId codec = static_cast<CodecId>(static_cast<unsigned char>(framed[0]));
  store::wire::Reader header{framed.substr(1, 12)};
  const std::uint32_t raw_size = header.u32();
  const std::uint64_t checksum = header.u64();
  const std::string_view payload = framed.substr(13);
  Result<std::string> raw = std::string();
  switch (codec) {
    case CodecId::identity:
      if (payload.size() != raw_size) {
        raw = make_error(Errc::corrupt, "identity codec: size mismatch");
      } else {
        raw = std::string(payload);
      }
      break;
    case CodecId::lz:
      raw = lz_decode(payload, raw_size);
      break;
    default:
      return make_error(Errc::unsupported, "chunk frame: unknown codec id " +
                                               std::to_string(static_cast<unsigned>(codec)) +
                                               " for " + std::string(what));
  }
  if (!raw.ok()) {
    return make_error(Errc::corrupt,
                      "chunk decode failed for " + std::string(what) + ": " +
                          raw.error().message);
  }
  if (store::wire::fnv1a64(raw.value()) != checksum) {
    return make_error(Errc::corrupt, "chunk checksum mismatch: " + std::string(what));
  }
  return raw;
}

}  // namespace comt::transfer
