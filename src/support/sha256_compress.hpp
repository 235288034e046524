// The SHA-256 block compressors behind Sha256. Internal: production code
// constructs Sha256() and gets the dispatched one; tests compare the two
// paths through this header, and bench/micro_framework times each.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/sha256.hpp"

namespace comt::sha256_detail {

/// Portable C++ compressor. Runs on every CPU and is the reference the
/// hardware path is tested against.
void compress_portable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

/// The x86 SHA-extensions compressor, or nullptr when this build targets
/// another architecture or CPUID lacks SHA (leaf 7 EBX bit 29), SSSE3 or
/// SSE4.1. CPUID is read once per process.
Sha256::Compressor hardware_compressor();

/// What Sha256() uses: hardware_compressor() when present, else
/// compress_portable.
Sha256::Compressor selected_compressor();

}  // namespace comt::sha256_detail
