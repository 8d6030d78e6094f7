// ChaCha20 stream cipher (RFC 8439 block function), used as the bulk
// cipher of this repository's lightweight AEAD (see aead.h for the
// security caveat). Verified against the RFC 8439 test vectors in
// tests/crypto_test.cc.
//
// The XOR path is vectorized: one call covers any length with one
// vertical 8-block kernel (whole 512-byte batches in place, the final
// partial batch through a stack buffer), built for AVX-512VL and for
// AVX2 and picked by runtime CPU dispatch (crypto/cpu.h). The scalar
// block function is the portable reference and fallback, and also
// serves inputs of one block or less, where it measures faster than a
// whole vector batch. Every level is byte-identical — the kernel
// computes the same 32-bit additions/rotations lane-wise, and uint32
// wraparound is identical in scalar and SIMD registers.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mpq::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;
inline constexpr std::size_t kChaChaBlockSize = 64;

using ChaChaKey = std::array<std::uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<std::uint8_t, kChaChaNonceSize>;

/// Compute one 64-byte keystream block (RFC 8439 §2.3).
void ChaCha20Block(const ChaChaKey& key, std::uint32_t counter,
                   const ChaChaNonce& nonce,
                   std::array<std::uint8_t, kChaChaBlockSize>& out);

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter` (RFC 8439 §2.4). Encryption and decryption are the
/// same operation. The call consumes ceil(data.size() / kChaChaBlockSize)
/// blocks, so a message split at block boundaries can be XORed piecewise
/// by advancing the counter that far between calls.
void ChaCha20Xor(const ChaChaKey& key, std::uint32_t initial_counter,
                 const ChaChaNonce& nonce, std::span<std::uint8_t> data);

}  // namespace mpq::crypto
