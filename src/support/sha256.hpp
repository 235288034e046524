// SHA-256 (FIPS 180-4). Content digests for OCI blobs and build-graph node
// identities. Self-contained implementation — no external crypto dependency.
//
// Two block compressors sit behind the hasher: a portable C++ one, and one
// built on the x86 SHA extensions (6-8x faster; docs/PERFORMANCE.md §8).
// Sha256() picks the hardware one once per process when CPUID reports SHA,
// SSSE3 and SSE4.1, and the portable one everywhere else; both produce the
// same digests. support/sha256_compress.hpp exposes them to tests and
// benchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace comt {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// Folds `blocks` consecutive 64-byte blocks at `data` into `state`.
  using Compressor = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

  /// Hashes with the fastest compressor this CPU supports.
  Sha256();
  /// Hashes with `compress` (see support/sha256_compress.hpp).
  explicit Sha256(Compressor compress);

  /// Absorbs `data` into the running hash.
  void update(std::string_view data);
  void update(const void* data, std::size_t size);

  /// Finalizes and returns the 32-byte digest. The hasher must not be used
  /// after calling finish().
  std::array<std::uint8_t, 32> finish();

  /// One-shot convenience: lowercase-hex digest of `data`.
  static std::string hex_digest(std::string_view data);

 private:
  Compressor compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lowercase-hex encoding of arbitrary bytes.
std::string to_hex(const std::uint8_t* data, std::size_t size);

}  // namespace comt
