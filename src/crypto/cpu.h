// Runtime CPU-feature dispatch for the crypto kernels. The only place in
// the repository allowed to name CPU features or use vendor intrinsics is
// src/crypto/ (enforced by the `mpq-simd-intrinsics` lint rule); everything
// above the AEAD sees one scalar-equivalent API whose implementation is
// selected here once per process.
//
// Selection order (highest wins): AVX-512VL > AVX2 > scalar. Both vector
// levels run the same 8-block ChaCha20 kernel (chacha20_x8.cc, built once
// per level); AVX-512VL adds native 32-bit rotates and 32 registers. A
// level is usable only if it was compiled in (the build can force scalar
// with -DMPQ_NO_SIMD=ON), the CPU reports it, and the environment does
// not veto it (MPQ_NO_SIMD=1 at runtime). Every level produces
// byte-identical output — cross-checked by tests/crypto_test.cc and the
// ci.sh selftest stage.
#pragma once

namespace mpq::crypto {

enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512vl = 2 };

/// Best level that is compiled in, supported by this CPU, and not vetoed
/// by MPQ_NO_SIMD=1 in the environment. Detected once, then cached.
SimdLevel MaxSimdLevel();

/// The level the kernels currently dispatch on: MaxSimdLevel() unless a
/// test lowered it with ForceSimdLevel.
SimdLevel ActiveSimdLevel();

/// Test hook: pin dispatch to `level` (clamped to MaxSimdLevel — forcing
/// a level the machine cannot run is silently capped, so equivalence
/// tests iterate 0..level without #ifdefs). Not thread-safe; call it only
/// from single-threaded test setup.
void ForceSimdLevel(SimdLevel level);

/// "scalar" | "avx2" | "avx512vl" — for bench/selftest labels.
const char* SimdLevelName(SimdLevel level);

}  // namespace mpq::crypto
