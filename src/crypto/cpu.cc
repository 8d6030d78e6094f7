#include "crypto/cpu.h"

#include <cstdlib>

namespace mpq::crypto {

namespace {

SimdLevel DetectMaxLevel() {
  if (const char* env = std::getenv("MPQ_NO_SIMD");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    return SimdLevel::kScalar;
  }
  SimdLevel level = SimdLevel::kScalar;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
#if defined(MPQ_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) level = SimdLevel::kAvx2;
#endif
#if defined(MPQ_HAVE_AVX512VL)
  if (level == SimdLevel::kAvx2 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl")) {
    level = SimdLevel::kAvx512vl;
  }
#endif
#endif
  return level;
}

SimdLevel& ForcedLevel() {
  static SimdLevel forced = MaxSimdLevel();
  return forced;
}

}  // namespace

SimdLevel MaxSimdLevel() {
  static const SimdLevel max = DetectMaxLevel();
  return max;
}

SimdLevel ActiveSimdLevel() { return ForcedLevel(); }

void ForceSimdLevel(SimdLevel level) {
  ForcedLevel() = level <= MaxSimdLevel() ? level : MaxSimdLevel();
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512vl:
      return "avx512vl";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace mpq::crypto
