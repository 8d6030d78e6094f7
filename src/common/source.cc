#include "common/source.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace mpq {

namespace {

// PatternByte's mix: x = offset * kStep + id * kSalt, byte = x >> 32.
constexpr std::uint64_t kStep = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSalt = 0xBF58476D1CE4E5B9ULL;

// Bulk fill, 16 bytes a block: with j * kStep = dh * 2^32 + dl, byte j is
// (x >> 32) + dh + (lo > ~dl), the last term being the carry out of the
// low halves. 8- and 32-bit lanes vectorize on the baseline ISA.
constexpr std::size_t kBlock = 16;
struct BlockStep {
  std::array<std::uint8_t, kBlock> dh{};
  std::array<std::uint32_t, kBlock> not_dl{};
};
constexpr BlockStep kBlockStep = [] {
  BlockStep step;
  for (std::size_t j = 0; j < kBlock; ++j) {
    const std::uint64_t d = j * kStep;
    step.dh[j] = static_cast<std::uint8_t>(d >> 32);
    step.not_dl[j] = ~static_cast<std::uint32_t>(d);
  }
  return step;
}();

std::uint64_t Mix(std::uint32_t id, ByteCount offset) {
  return offset.value() * kStep + id * kSalt;
}

// Writes out[0, n): the bytes whose mix starts at x. The mix is linear
// in the offset, so byte i comes from x + i * kStep. Forced inline: each
// caller keeps its own straight loop, with no call per packet in Read.
[[gnu::always_inline]] inline void FillPattern(std::uint64_t x,
                                               std::uint8_t* out,
                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock, x += kBlock * kStep) {
    const auto hi = static_cast<std::uint8_t>(x >> 32);
    const auto lo = static_cast<std::uint32_t>(x);
    for (std::size_t j = 0; j < kBlock; ++j) {
      out[i + j] = static_cast<std::uint8_t>(
          hi + kBlockStep.dh[j] + (lo > kBlockStep.not_dl[j] ? 1 : 0));
    }
  }
  for (; i < n; ++i, x += kStep) {
    out[i] = static_cast<std::uint8_t>(x >> 32);
  }
}

}  // namespace

// The per-byte reference. Code outside this module that still calls it
// once per byte (the benchmark's expected-payload fill) slowed by ~25%
// when its 39 bytes straddled a 64-byte line: it starts on a line,
// whatever code grows before it.
__attribute__((aligned(64))) std::uint8_t PatternByte(std::uint32_t id,
                                                      ByteCount offset) {
  // Cheap non-repeating-ish pattern; mixes the offset's low and high bits
  // so truncation/reordering bugs can't alias to the right bytes.
  const std::uint64_t x = offset.value() * kStep + id * kSalt;
  return static_cast<std::uint8_t>(x >> 32);
}

void PatternSource::Read(ByteCount offset,
                         std::span<std::uint8_t> out) const {
  FillPattern(Mix(id_, offset), out.data(), out.size());
}

std::size_t CountPatternMismatches(std::uint32_t id, ByteCount offset,
                                   std::span<const std::uint8_t> data) {
  // Compare a chunk at a time against a fresh fill; only a chunk that
  // differs is counted byte by byte.
  constexpr std::size_t kChunk = 32 * kBlock;
  std::array<std::uint8_t, kChunk> expected{};
  std::uint64_t x = Mix(id, offset);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < data.size(); i += kChunk, x += kChunk * kStep) {
    const std::size_t n = std::min(kChunk, data.size() - i);
    FillPattern(x, expected.data(), n);
    if (std::memcmp(expected.data(), data.data() + i, n) == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      mismatches += expected[j] != data[i + j] ? 1 : 0;
    }
  }
  return mismatches;
}

void BufferSource::Read(ByteCount offset, std::span<std::uint8_t> out) const {
  if (out.empty()) return;
  std::memcpy(out.data(), data_.data() + offset.value(), out.size());
}

}  // namespace mpq
