// The vertical 8-block ChaCha20 kernel: ymm register i holds word i of
// eight consecutive keystream blocks (blocks c..c+3 in the low 128-bit
// lane, c+4..c+7 in the high lane), so the 20 rounds run on all eight
// blocks at once. uint32 lane arithmetic wraps exactly like the scalar
// block, so the output is byte-identical to it (tests + ci.sh enforce it).
//
// This one source is compiled twice (src/crypto/CMakeLists.txt): with
// -mavx2, and with -mavx2 -mavx512vl. Under __AVX512VL__ every rotation
// is a native vprold and the 32 vector registers hold the whole state
// without spills; under plain AVX2 the 16/8-bit rotations use the byte
// shuffle unit and the others shift+or. chacha20.cc dispatches to the
// build the CPU supports at runtime (crypto/cpu.h).
//
// Keep this file free of std templates: the two builds are linked into
// one binary, and an inline function instantiated in both would be merged
// into one copy that might carry AVX-512 code onto an AVX2-only CPU.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "crypto/chacha20_impl.h"

#if defined(__AVX512VL__)
#define MPQ_CHACHA20_X8 ChaCha20XorAvx512vl
#else
#define MPQ_CHACHA20_X8 ChaCha20XorAvx2
#endif

namespace mpq::crypto::internal {

namespace {

constexpr std::size_t kBatchBytes = 8 * 64;

template <int k>
inline __m256i Rotl(__m256i x) {
#if defined(__AVX512VL__)
  return _mm256_rol_epi32(x, k);
#else
  if constexpr (k == 16) {
    return _mm256_shuffle_epi8(
        x, _mm256_set_epi8(13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0,
                           3, 2, 13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6,
                           1, 0, 3, 2));
  } else if constexpr (k == 8) {
    return _mm256_shuffle_epi8(
        x, _mm256_set_epi8(14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1,
                           0, 3, 14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7,
                           2, 1, 0, 3));
  } else {
    return _mm256_or_si256(_mm256_slli_epi32(x, k),
                           _mm256_srli_epi32(x, 32 - k));
  }
#endif
}

inline void QuarterRound(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = _mm256_add_epi32(a, b);
  d = Rotl<16>(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = Rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = Rotl<8>(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = Rotl<7>(_mm256_xor_si256(b, c));
}

inline __m256i Broadcast(std::uint32_t word) {
  return _mm256_set1_epi32(static_cast<int>(word));
}

inline void XorRow(std::uint8_t* p, __m256i keystream) {
  __m256i* row = reinterpret_cast<__m256i*>(p);
  _mm256_storeu_si256(row,
                      _mm256_xor_si256(_mm256_loadu_si256(row), keystream));
}

}  // namespace

void MPQ_CHACHA20_X8(const std::uint32_t state[16], std::uint8_t* data,
                     std::size_t len) {
  const __m256i lane_offsets = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::uint32_t counter = state[12];
  while (len > 0) {
    // The rounds start from broadcasts of the state words and re-read
    // them for the feed-forward add, so no copy of the initial rows has
    // to stay live across the round loop. The unroll pragmas matter: -O2
    // does not fully unroll these 16-step loops by itself, and a row
    // array indexed by a loop variable is kept on the stack.
    __m256i v[16];
    #pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) v[i] = Broadcast(state[i]);
    const __m256i counters =
        _mm256_add_epi32(Broadcast(counter), lane_offsets);
    v[12] = counters;
    for (int round = 0; round < 10; ++round) {
      QuarterRound(v[0], v[4], v[8], v[12]);
      QuarterRound(v[1], v[5], v[9], v[13]);
      QuarterRound(v[2], v[6], v[10], v[14]);
      QuarterRound(v[3], v[7], v[11], v[15]);
      QuarterRound(v[0], v[5], v[10], v[15]);
      QuarterRound(v[1], v[6], v[11], v[12]);
      QuarterRound(v[2], v[7], v[8], v[13]);
      QuarterRound(v[3], v[4], v[9], v[14]);
    }
    #pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      v[i] = _mm256_add_epi32(v[i], i == 12 ? counters : Broadcast(state[i]));
    }

    // Transpose each 4-word group within the 128-bit lanes (one block's
    // 16-byte row per lane), then splice lanes pairwise: ks[j] is bytes
    // [32j, 32j + 32) of the 512-byte keystream batch.
    __m256i ks[16];
    #pragma GCC unroll 16
    for (int g = 0; g < 4; ++g) {
      const __m256i t0 = _mm256_unpacklo_epi32(v[4 * g], v[4 * g + 1]);
      const __m256i t1 = _mm256_unpacklo_epi32(v[4 * g + 2], v[4 * g + 3]);
      const __m256i t2 = _mm256_unpackhi_epi32(v[4 * g], v[4 * g + 1]);
      const __m256i t3 = _mm256_unpackhi_epi32(v[4 * g + 2], v[4 * g + 3]);
      v[4 * g] = _mm256_unpacklo_epi64(t0, t1);      // blocks 0 | 4
      v[4 * g + 1] = _mm256_unpackhi_epi64(t0, t1);  // blocks 1 | 5
      v[4 * g + 2] = _mm256_unpacklo_epi64(t2, t3);  // blocks 2 | 6
      v[4 * g + 3] = _mm256_unpackhi_epi64(t2, t3);  // blocks 3 | 7
    }
    #pragma GCC unroll 16
    for (int b = 0; b < 4; ++b) {
      ks[2 * b] = _mm256_permute2x128_si256(v[b], v[4 + b], 0x20);
      ks[2 * b + 1] = _mm256_permute2x128_si256(v[8 + b], v[12 + b], 0x20);
      ks[2 * b + 8] = _mm256_permute2x128_si256(v[b], v[4 + b], 0x31);
      ks[2 * b + 9] = _mm256_permute2x128_si256(v[8 + b], v[12 + b], 0x31);
    }

    if (len >= kBatchBytes) {
      #pragma GCC unroll 16
      for (int j = 0; j < 16; ++j) XorRow(data + 32 * j, ks[j]);
      data += kBatchBytes;
      len -= kBatchBytes;
      counter += 8;
    } else {
      // Final partial batch: spill the keystream and XOR only the bytes
      // the caller owns, so nothing past the end of `data` is touched.
      alignas(32) std::uint8_t tail[kBatchBytes];
      #pragma GCC unroll 16
      for (int j = 0; j < 16; ++j) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(tail + 32 * j), ks[j]);
      }
      std::size_t i = 0;
      for (; i + 32 <= len; i += 32) {
        XorRow(data + i,
               _mm256_load_si256(reinterpret_cast<const __m256i*>(tail + i)));
      }
      for (; i < len; ++i) data[i] ^= tail[i];
      len = 0;
    }
  }
}

}  // namespace mpq::crypto::internal
