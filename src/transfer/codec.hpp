// The compression stage of the wire path. Chunks move (and rest) inside a
// small self-describing frame — codec id, raw size, raw checksum, payload —
// so the receiving side always knows how to undo the encoding and can prove
// the decode round-tripped before trusting a single byte. A torn upload, a
// bit-flip in storage, or a decoder bug all surface as Errc::corrupt; they
// can never silently reassemble into a wrong blob.
//
// Every chunk is framed with LZ, or stored as identity (raw bytes) when LZ
// does not shrink it; the frame's id byte says which, so a reader never
// needs to know what the writer preferred.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace comt::transfer {

/// Wire-stable codec identifiers, the first byte of every chunk frame (never
/// renumber).
enum class CodecId : std::uint8_t {
  identity = 0,  ///< raw bytes
  lz = 1,        ///< byte-aligned LZ (greedy 4-byte-hash matcher, 64 KiB window)
};

/// Frames `raw` for the wire:
/// [u8 codec_id][u32 raw_size][u64 fnv1a64(raw)][payload]. The payload is
/// LZ-encoded, or the raw bytes under an identity id when the encoding does
/// not shrink them.
std::string frame_chunk(std::string_view raw);

/// Unframes and decodes, then verifies raw size and checksum — torn frames
/// and failed round-trips come back Errc::corrupt, a codec id this build has
/// no decoder for Errc::unsupported. `what` names the chunk in error
/// messages.
Result<std::string> unframe_chunk(std::string_view what, std::string_view framed);

}  // namespace comt::transfer
