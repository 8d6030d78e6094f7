// Control: GCC generic vector types (vector_size) in src/common — no
// findings expected. They name no instruction set, so the compiler lowers
// one code path to each target's baseline vector unit; the rule is about
// vendor intrinsics (simd_intrinsics.cc stays flagged), not about vectors.
#include <cstdint>
#include <cstring>

using U32x4 = std::uint32_t __attribute__((vector_size(16)));

void AddFour(std::uint32_t* values, std::uint32_t step) {
  U32x4 v;
  std::memcpy(&v, values, sizeof(v));
  v += step;
  std::memcpy(values, &v, sizeof(v));
}
