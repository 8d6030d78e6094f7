#include "common/source.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace mpq {

namespace {

// PatternByte's mix: x = offset * kStep + id * kSalt, byte = x >> 32.
constexpr std::uint64_t kStep = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSalt = 0xBF58476D1CE4E5B9ULL;

std::uint64_t Mix(std::uint32_t id, ByteCount offset) {
  return offset.value() * kStep + id * kSalt;
}

// The bulk kernel, 16 bytes a block. The mix is linear in the offset, so
// with j * kStep = dh_j * 2^32 + dl_j, byte j of a block whose mix is x
// is (x >> 32) + dh_j + (lo > ~dl_j), lo = low32(x): the last term is the
// carry out of the low halves. GCC generic vectors give one code path on
// every target, lowered to its baseline vector ISA (SSE2 on x86-64).
using U8x16 = std::uint8_t __attribute__((vector_size(16)));
using U32x4 = std::uint32_t __attribute__((vector_size(16)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));
constexpr std::size_t kBlock = sizeof(U8x16);

// Byte 4k + q of a vector is byte q of its 32-bit lane k.
static_assert(std::endian::native == std::endian::little);

// The 32-bit compares are signed (the baseline ISA has no unsigned one),
// so low words and thresholds carry this bias, which keeps their unsigned
// order.
constexpr std::uint32_t kBias = 0x80000000u;

// Lane k of threshold[q] is ~dl_{4k+q} ^ kBias: compare q tests bytes q,
// 4 + q, 8 + q and 12 + q, and the mask in place[q], 0xFF << 8q, keeps its
// result in byte q of each lane, so the four ORed masks are in byte order
// with no pack or shuffle.
struct BlockConstants {
  std::array<std::array<std::uint32_t, 4>, 4> threshold{};
  std::array<std::array<std::uint32_t, 4>, 4> place{};
  std::array<std::uint8_t, kBlock> dh{};
};
constexpr BlockConstants kConstants = [] {
  BlockConstants c;
  for (std::size_t j = 0; j < kBlock; ++j) {
    const std::uint64_t d = j * kStep;
    c.threshold[j % 4][j / 4] = ~static_cast<std::uint32_t>(d) ^ kBias;
    c.place[j % 4][j / 4] = 0xFFu << (8 * (j % 4));
    c.dh[j] = static_cast<std::uint8_t>(d >> 32);
  }
  return c;
}();

// The step to the next block: 16 * kStep = h * 2^32 + kStepLow, and
// kStepHigh is the low byte of h, the only one that reaches the pattern.
constexpr auto kStepLow = static_cast<std::uint32_t>(kBlock * kStep);
constexpr auto kStepHigh = static_cast<std::uint8_t>((kBlock * kStep) >> 32);

// Yields the pattern from mix x on, a block per Next(). The state stays
// in vectors across blocks: the biased low word in every lane, and in
// byte lane j the high byte plus dh_j. Stepping a block adds kStepLow to
// the low word and kStepHigh plus its carry (the wrap lo > next) to every
// byte, so no block broadcasts a scalar. An object lives in one caller's
// locals: stores through uint8_t* may alias the table, so its vectors are
// copied here once instead of being reloaded every block.
class PatternBlocks {
 public:
  explicit PatternBlocks(std::uint64_t x)
      : lo_(U32x4{} + (static_cast<std::uint32_t>(x) ^ kBias)),
        base_(std::bit_cast<U8x16>(kConstants.dh) +
              static_cast<std::uint8_t>(x >> 32)) {}

  U8x16 Next() {
    const I32x4 lo = std::bit_cast<I32x4>(lo_);
    const I32x4 carry = ((lo > threshold_[0]) & place_[0]) |
                        ((lo > threshold_[1]) & place_[1]) |
                        ((lo > threshold_[2]) & place_[2]) |
                        ((lo > threshold_[3]) & place_[3]);
    const U8x16 bytes = base_ - std::bit_cast<U8x16>(carry);
    const U32x4 next = lo_ + kStepLow;
    const I32x4 wrap = lo > std::bit_cast<I32x4>(next);
    base_ += kStepHigh - std::bit_cast<U8x16>(wrap);
    lo_ = next;
    return bytes;
  }

 private:
  using Lanes = std::array<I32x4, 4>;
  const Lanes threshold_ = std::bit_cast<Lanes>(kConstants.threshold);
  const Lanes place_ = std::bit_cast<Lanes>(kConstants.place);
  U32x4 lo_;
  U8x16 base_;
};

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
  const std::uint64_t x = Mix(id_, offset);
  std::size_t i = 0;
  for (PatternBlocks blocks(x); i + kBlock <= out.size(); i += kBlock) {
    const U8x16 bytes = blocks.Next();
    std::memcpy(out.data() + i, &bytes, kBlock);
  }
  for (std::uint64_t y = x + i * kStep; i < out.size(); ++i, y += kStep) {
    out[i] = static_cast<std::uint8_t>(y >> 32);
  }
}

std::size_t CountPatternMismatches(std::uint32_t id, ByteCount offset,
                                   std::span<const std::uint8_t> data) {
  // Counts the bytes that match, a block at a time against the kernel's
  // bytes. Each byte lane counts up to 255 blocks before it is summed.
  const std::uint64_t x = Mix(id, offset);
  constexpr std::size_t kRun = 255 * kBlock;
  std::size_t matches = 0;
  std::size_t i = 0;
  for (PatternBlocks blocks(x); i + kBlock <= data.size();) {
    const std::size_t end =
        i + std::min(kRun, (data.size() - i) & ~(kBlock - 1));
    U8x16 hits{};
    for (; i < end; i += kBlock) {
      U8x16 got;
      std::memcpy(&got, data.data() + i, kBlock);
      hits -= std::bit_cast<U8x16>(got == blocks.Next());
    }
    for (const std::uint8_t lane :
         std::bit_cast<std::array<std::uint8_t, kBlock>>(hits)) {
      matches += lane;
    }
  }
  for (std::uint64_t y = x + i * kStep; i < data.size(); ++i, y += kStep) {
    matches += data[i] == static_cast<std::uint8_t>(y >> 32) ? 1 : 0;
  }
  return data.size() - matches;
}

void BufferSource::Read(ByteCount offset, std::span<std::uint8_t> out) const {
  if (out.empty()) return;
  std::memcpy(out.data(), data_.data() + offset.value(), out.size());
}

}  // namespace mpq
