#include "support/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "support/sha256_compress.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define COMT_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace comt {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

void process_block(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t(block[4 * i]) << 24) |
           (std::uint32_t(block[4 * i + 1]) << 16) |
           (std::uint32_t(block[4 * i + 2]) << 8) |
           std::uint32_t(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if COMT_SHA256_X86

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = ((ecx >> 9) & 1) != 0;
  const bool sse41 = ((ecx >> 19) & 1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = ((ebx >> 29) & 1) != 0;
  return ssse3 && sse41 && sha;
}

// The SHA-extension rounds keep the eight state words as two lane pairs,
// ABEF and CDGH; each _mm_sha256rnds2_epu32 runs two rounds, so one 4-word
// message group takes a call on each half. The message schedule is built
// four words at a time with msg1/msg2, three groups ahead of the rounds.
__attribute__((target("sha,ssse3,sse4.1")))
void compress_sha_extensions(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  auto* words = reinterpret_cast<__m128i*>(state);
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // message groups; w[g % 4] holds words 4g..4g+3
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byte_swap);
      }
      const __m128i k = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
      if (g >= 3 && g < 15) {  // finish group g+1
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(k, 0x0E));
      if (g >= 1 && g < 13) {  // start group g+3 in the slot of group g-1
        __m128i& prev = w[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // COMT_SHA256_X86

}  // namespace

namespace sha256_detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks != 0; --blocks, data += 64) process_block(state, data);
}

Sha256::Compressor hardware_compressor() {
#if COMT_SHA256_X86
  static const bool supported = cpu_has_sha_extensions();
  return supported ? &compress_sha_extensions : nullptr;
#else
  return nullptr;
#endif
}

Sha256::Compressor selected_compressor() {
  const Sha256::Compressor hardware = hardware_compressor();
  return hardware != nullptr ? hardware : &compress_portable;
}

}  // namespace sha256_detail

Sha256::Sha256() : Sha256(sha256_detail::selected_compressor()) {}

Sha256::Sha256(Compressor compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(std::string_view data) { update(data.data(), data.size()); }

void Sha256::update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += size;
  // Fill a partially buffered block first.
  if (buffered_ != 0) {
    std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    size -= take;
    if (buffered_ == buffer_.size()) {
      compress_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (size >= 64) {
    const std::size_t blocks = size / 64;
    compress_(state_.data(), bytes, blocks);
    bytes += blocks * 64;
    size -= blocks * 64;
  }
  if (size != 0) {
    std::memcpy(buffer_.data(), bytes, size);
    buffered_ = size;
  }
}

std::array<std::uint8_t, 32> Sha256::finish() {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  std::size_t pad_length = (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  update(kPad, pad_length);
  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(length_bytes, 8);

  std::array<std::uint8_t, 32> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

std::string Sha256::hex_digest(std::string_view data) {
  Sha256 hasher;
  hasher.update(data);
  auto digest = hasher.finish();
  return to_hex(digest.data(), digest.size());
}

std::string to_hex(const std::uint8_t* data, std::size_t size) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(size * 2);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

}  // namespace comt
