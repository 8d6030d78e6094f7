#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#include "crypto/chacha20_impl.h"
#include "crypto/cpu.h"

namespace mpq::crypto {

namespace {

constexpr std::uint32_t Rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline void QuarterRound(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                         std::uint32_t& d) {
  a += b;
  d = Rotl32(d ^ a, 16);
  c += d;
  b = Rotl32(b ^ c, 12);
  a += b;
  d = Rotl32(d ^ a, 8);
  c += d;
  b = Rotl32(b ^ c, 7);
}

inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

inline void StoreLe32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void InitState(std::uint32_t state[16], const ChaChaKey& key,
                      std::uint32_t counter, const ChaChaNonce& nonce) {
  // RFC 8439 §2.3: constants | key | counter | nonce.
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = LoadLe32(&key[4 * i]);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = LoadLe32(&nonce[4 * i]);
}

/// The scalar block function (RFC 8439 §2.3), the reference every vector
/// level must match: serialize keystream block `counter` of `state`
/// into `out`.
void KeystreamBlock(const std::uint32_t state[16], std::uint32_t counter,
                    std::uint8_t out[kChaChaBlockSize]) {
  std::uint32_t working[16];
  std::copy(state, state + 16, working);
  working[12] = counter;
  for (int round = 0; round < 10; ++round) {
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t input = i == 12 ? counter : state[i];
    StoreLe32(&out[4 * i], working[i] + input);
  }
}

/// Scalar fallback: XOR `len` keystream bytes into `data`, one block at a
/// time from state[12].
void XorScalar(const std::uint32_t state[16], std::uint8_t* data,
               std::size_t len) {
  std::uint8_t keystream[kChaChaBlockSize];
  for (std::uint32_t counter = state[12]; len > 0; ++counter) {
    KeystreamBlock(state, counter, keystream);
    const std::size_t n = std::min(len, kChaChaBlockSize);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word;
      std::uint64_t key_word;
      std::memcpy(&word, data + i, 8);
      std::memcpy(&key_word, keystream + i, 8);
      word ^= key_word;
      std::memcpy(data + i, &word, 8);
    }
    for (; i < n; ++i) data[i] ^= keystream[i];
    data += n;
    len -= n;
  }
}

}  // namespace

void ChaCha20Block(const ChaChaKey& key, std::uint32_t counter,
                   const ChaChaNonce& nonce,
                   std::array<std::uint8_t, kChaChaBlockSize>& out) {
  std::uint32_t state[16];
  InitState(state, key, counter, nonce);
  KeystreamBlock(state, counter, out.data());
}

void ChaCha20Xor(const ChaChaKey& key, std::uint32_t initial_counter,
                 const ChaChaNonce& nonce, std::span<std::uint8_t> data) {
  std::uint32_t state[16];
  InitState(state, key, initial_counter, nonce);
  const std::size_t len = data.size();
  // One block or less (ACK-only and PING packets) measures faster on the
  // scalar block than on a whole 8-block vector batch.
  const SimdLevel level =
      len > kChaChaBlockSize ? ActiveSimdLevel() : SimdLevel::kScalar;
  switch (level) {
#if defined(MPQ_HAVE_AVX512VL)
    case SimdLevel::kAvx512vl:
      internal::ChaCha20XorAvx512vl(state, data.data(), len);
      break;
#endif
#if defined(MPQ_HAVE_AVX2)
    case SimdLevel::kAvx2:
      internal::ChaCha20XorAvx2(state, data.data(), len);
      break;
#endif
    default:
      XorScalar(state, data.data(), len);
      break;
  }
}

}  // namespace mpq::crypto
