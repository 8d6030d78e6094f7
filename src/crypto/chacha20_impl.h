// Internal contract between the ChaCha20 dispatcher (chacha20.cc) and the
// vertical 8-block kernel (chacha20_x8.cc, compiled once per vector ISA
// level). Not installed outside src/crypto.
//
// A kernel XORs `len` bytes of keystream into `data` (any length: whole
// 512-byte batches in place, the final partial batch through a stack
// buffer, never touching data[len] or beyond), starting at the block
// counter in state[12]; state is read-only. state is the RFC 8439 layout:
// constants | key | counter | nonce, one 32-bit word each.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mpq::crypto::internal {

// Defined only in builds that compiled the level in (MPQ_HAVE_AVX2,
// MPQ_HAVE_AVX512VL); the dispatcher calls each under the same guard.
void ChaCha20XorAvx2(const std::uint32_t state[16], std::uint8_t* data,
                     std::size_t len);
void ChaCha20XorAvx512vl(const std::uint32_t state[16], std::uint8_t* data,
                         std::size_t len);

}  // namespace mpq::crypto::internal
