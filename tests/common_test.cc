// Unit tests for the common toolkit: codecs, RNG determinism, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/buf.h"
#include "common/rng.h"
#include "common/source.h"
#include "common/stats.h"
#include "common/types.h"

namespace mpq {
namespace {

TEST(BufWriter, FixedWidthIntegersAreBigEndian) {
  BufWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0102030405060708ULL);
  const std::vector<std::uint8_t> expected = {
      0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF,
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(w.data(), expected);
}

TEST(BufWriter, BulkWritesMatchByteWiseEncoding) {
  // The multi-byte writers take a single resize + memcpy; the result must
  // be byte-identical to writing the same big-endian bytes one at a time.
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }

  BufWriter bulk;
  bulk.WriteU16(0x1234);
  bulk.WriteU32(0xDEADBEEF);
  bulk.WriteU64(0x0102030405060708ULL);
  bulk.WriteBytes(payload);
  bulk.WriteBytes(payload.data(), 10);
  bulk.WriteBytes(std::span<const std::uint8_t>{});  // no-op
  bulk.WriteZeroes(5);

  BufWriter ref;
  for (std::uint8_t b : {0x12, 0x34}) ref.WriteU8(b);
  for (std::uint8_t b : {0xDE, 0xAD, 0xBE, 0xEF}) ref.WriteU8(b);
  for (int i = 1; i <= 8; ++i) ref.WriteU8(static_cast<std::uint8_t>(i));
  for (std::uint8_t b : payload) ref.WriteU8(b);
  for (std::size_t i = 0; i < 10; ++i) ref.WriteU8(payload[i]);
  for (int i = 0; i < 5; ++i) ref.WriteU8(0);

  EXPECT_EQ(bulk.data(), ref.data());
}

TEST(BufWriter, ClearKeepsAllocationAndMutableSpanAliases) {
  // The packet-assembly scratch path: Clear() reuses the buffer, and
  // mutable_span() writes through to the stored bytes (in-place AEAD).
  BufWriter w;
  w.WriteU32(0xAABBCCDD);
  w.Clear();
  EXPECT_TRUE(w.empty());
  w.WriteU8(7);
  w.WriteZeroes(3);
  const std::span<std::uint8_t> view = w.mutable_span();
  ASSERT_EQ(view.size(), 4u);
  view[3] = 0x55;
  const std::vector<std::uint8_t> expected = {7, 0, 0, 0x55};
  EXPECT_EQ(w.data(), expected);
}

TEST(BufReader, RoundTripsFixedWidthIntegers) {
  BufWriter w;
  w.WriteU8(7);
  w.WriteU16(1025);
  w.WriteU32(70000);
  w.WriteU64(1ULL << 60);
  BufReader r(w.span());
  std::uint8_t a;
  std::uint16_t b;
  std::uint32_t c;
  std::uint64_t d;
  ASSERT_TRUE(r.ReadU8(a));
  ASSERT_TRUE(r.ReadU16(b));
  ASSERT_TRUE(r.ReadU32(c));
  ASSERT_TRUE(r.ReadU64(d));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 1025);
  EXPECT_EQ(c, 70000u);
  EXPECT_EQ(d, 1ULL << 60);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufReader, UnderrunFailsWithoutAdvancing) {
  BufWriter w;
  w.WriteU16(99);
  BufReader r(w.span());
  std::uint32_t v = 0;
  EXPECT_FALSE(r.ReadU32(v));
  EXPECT_EQ(r.remaining(), 2u);  // cursor untouched
  std::uint16_t ok = 0;
  EXPECT_TRUE(r.ReadU16(ok));
  EXPECT_EQ(ok, 99);
}

TEST(Varint, KnownEncodingBoundaries) {
  struct Case {
    std::uint64_t value;
    std::size_t size;
  };
  const Case cases[] = {{0, 1},        {63, 1},          {64, 2},
                        {16383, 2},    {16384, 4},       {(1ULL << 30) - 1, 4},
                        {1ULL << 30, 8}, {kVarintMax, 8}};
  for (const auto& c : cases) {
    EXPECT_EQ(VarintSize(c.value), c.size) << c.value;
    BufWriter w;
    ASSERT_TRUE(w.WriteVarint(c.value));
    EXPECT_EQ(w.size(), c.size);
    BufReader r(w.span());
    std::uint64_t decoded = 0;
    ASSERT_TRUE(r.ReadVarint(decoded));
    EXPECT_EQ(decoded, c.value);
  }
}

TEST(Varint, RejectsOversizedValue) {
  BufWriter w;
  EXPECT_FALSE(w.WriteVarint(kVarintMax + 1));
  EXPECT_TRUE(w.empty());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodeDecodeIdentity) {
  BufWriter w;
  ASSERT_TRUE(w.WriteVarint(GetParam()));
  BufReader r(w.span());
  std::uint64_t decoded = 0;
  ASSERT_TRUE(r.ReadVarint(decoded));
  EXPECT_EQ(decoded, GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Sweep, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 63ULL, 64ULL,
                                           100ULL, 16383ULL, 16384ULL,
                                           1000000ULL, (1ULL << 30) - 1,
                                           1ULL << 30, 1ULL << 40,
                                           (1ULL << 62) - 1));

TEST(Varint, FuzzRoundTripAgainstRng) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.NextU64() & kVarintMax;
    BufWriter w;
    ASSERT_TRUE(w.WriteVarint(v));
    BufReader r(w.span());
    std::uint64_t decoded = 0;
    ASSERT_TRUE(r.ReadVarint(decoded));
    ASSERT_EQ(decoded, v);
  }
}

TEST(Hex, FormatsBytes) {
  const std::uint8_t bytes[] = {0x00, 0xFF, 0x1A};
  EXPECT_EQ(ToHex({bytes, 3}), "00ff1a");
}

TEST(PatternSource, BulkReadMatchesPatternByte) {
  // The bulk fill steps the pattern's mix per byte instead of calling
  // PatternByte per byte; the two must agree everywhere, including for
  // offsets past 2^32 (where the mix's high bits matter) and reads that
  // straddle that boundary. BufferSource must return the same bytes as
  // the pattern it was built from.
  Rng rng(0x50A7CE);
  for (int iter = 0; iter < 300; ++iter) {
    const auto id = static_cast<std::uint32_t>(rng.NextU64());
    const std::size_t len = rng.NextBounded(2001);  // 0..2000
    ByteCount offset{rng.NextBounded(1ULL << 40)};
    if (iter % 3 == 0) {
      offset = ByteCount{(1ULL << 32) - rng.NextBounded(len + 1)};
    }
    const PatternSource source(id, offset + len);

    BufWriter writer;
    writer.WriteU8(0x5A);  // the fill lands after existing bytes
    source.Read(offset, writer.AppendSpan(len));
    ASSERT_EQ(writer.size(), len + 1);
    ASSERT_EQ(writer.data()[0], 0x5A);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(writer.data()[i + 1], PatternByte(id, offset + i))
          << "iter " << iter << " byte " << i;
    }

    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[i] = PatternByte(id, ByteCount{i});
    }
    const BufferSource buffer(bytes);
    const std::size_t start = rng.NextBounded(len + 1);
    const std::size_t count = rng.NextBounded(len - start + 1);
    std::vector<std::uint8_t> from_buffer(count);
    std::vector<std::uint8_t> from_pattern(count);
    buffer.Read(ByteCount{start}, from_buffer);
    PatternSource(id, ByteCount{len}).Read(ByteCount{start}, from_pattern);
    ASSERT_EQ(from_buffer, from_pattern) << "iter " << iter;
  }
}

// PatternByte's mix, restated: byte = (offset * kStep + id * kSalt) >> 32.
constexpr std::uint64_t kStep = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSalt = 0xBF58476D1CE4E5B9ULL;
// kStep is odd, so it has an inverse mod 2^64 (Newton's iteration doubles
// the correct low bits from the 3 that any odd number gets right).
constexpr std::uint64_t kStepInverse = [] {
  std::uint64_t inverse = kStep;
  for (int i = 0; i < 5; ++i) inverse *= 2 - kStep * inverse;
  return inverse;
}();
static_assert(kStep * kStepInverse == 1);

// The offset at which stream `id`'s byte `index` of a span has mix `x`.
ByteCount OffsetForMix(std::uint32_t id, std::uint64_t x, std::size_t index) {
  return ByteCount{(x - index * kStep - id * kSalt) * kStepInverse};
}

TEST(PatternSource, FillExactAtEveryCarryBoundary) {
  // The bulk kernel takes byte j of a 16-byte block from the block's mix x
  // as (x >> 32) + dh_j plus the carry lo > ~dl_j (lo = low32(x), j * kStep
  // = dh_j * 2^32 + dl_j), and steps to the next block with a carry when
  // the low word wraps past 2^32. Random offsets hit neither edge exactly,
  // so this solves for offsets that put a block's low word one below,
  // exactly on and one above each of the 16 thresholds, and the wrap into
  // the second block and into the last whole block of a span. Read and
  // CountPatternMismatches must both agree with PatternByte there.
  Rng rng(0xCA9915);
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> expected;
  // Checks the `len` bytes from the offset that gives block `block` the
  // mix x, after flipping byte `watched` for the second count.
  const auto check = [&](std::uint32_t id, std::uint64_t x, std::size_t block,
                         std::size_t len, std::size_t watched) {
    const ByteCount offset = OffsetForMix(id, x, 16 * block);
    // The restated mix is PatternByte's: the block starts on x.
    ASSERT_EQ(PatternByte(id, offset + 16 * block),
              static_cast<std::uint8_t>(x >> 32));
    expected.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      expected[i] = PatternByte(id, offset + i);
    }
    got.assign(len, 0);
    PatternSource(id, offset + len).Read(offset, got);
    ASSERT_EQ(got, expected) << "id " << id << " offset " << offset.value()
                             << " len " << len;
    ASSERT_EQ(CountPatternMismatches(id, offset, expected), 0u)
        << "id " << id << " offset " << offset.value() << " len " << len;
    expected[watched] ^= 1;
    ASSERT_EQ(CountPatternMismatches(id, offset, expected), 1u)
        << "id " << id << " offset " << offset.value() << " len " << len;
  };
  constexpr std::uint32_t kIds[] = {0, 0x715, 0xFFFFFFFF};
  constexpr std::size_t kLens[] = {16, 31, 33, 200, 1350};
  for (const std::uint32_t id : kIds) {
    for (const std::size_t len : kLens) {
      const std::size_t blocks = len / 16;
      for (const std::size_t block : {std::size_t{0}, blocks / 2, blocks - 1}) {
        for (std::size_t j = 0; j < 16; ++j) {
          const auto threshold = ~static_cast<std::uint32_t>(j * kStep);
          for (const std::uint32_t delta : {0xFFFFFFFFu, 0u, 1u}) {
            const std::uint64_t x = (rng.NextU64() << 32) | (threshold + delta);
            check(id, x, block, len, 16 * block + j);
          }
        }
      }
      if (blocks < 2) continue;
      // The low word at the start of the second and of the last whole
      // block: the last value the step reaches without wrapping, and the
      // first two it reaches by wrapping past 2^32.
      for (const std::size_t block : {std::size_t{1}, blocks - 1}) {
        for (const std::uint32_t low : {0xFFFFFFFFu, 0u, 1u}) {
          const std::uint64_t x = (rng.NextU64() << 32) | low;
          const auto before = static_cast<std::uint32_t>(x - 16 * kStep);
          ASSERT_EQ(before > low, low != 0xFFFFFFFFu);
          check(id, x, block, len, 16 * block);
        }
      }
    }
  }
}

// The per-byte reference the bulk checker must agree with.
std::size_t CountMismatchesPerByte(std::uint32_t id, ByteCount offset,
                                   std::span<const std::uint8_t> data) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != PatternByte(id, offset + i)) ++mismatches;
  }
  return mismatches;
}

// A random id, length in [0, 4096] and offset: one in three offsets sits
// just below a multiple of 2^32, so the low 32 bits of the offset wrap
// inside the first blocks of the span.
struct CheckerCase {
  std::uint32_t id = 0;
  ByteCount offset{};
  std::vector<std::uint8_t> data;
};
CheckerCase RandomCheckerCase(Rng& rng, int iter) {
  static constexpr std::uint32_t kIds[] = {0, 3, 0x715, 0xFFFFFFFF};
  CheckerCase c;
  c.id = iter % 5 < 4 ? kIds[iter % 5]
                      : static_cast<std::uint32_t>(rng.NextU64());
  const std::size_t len = iter < 32 ? static_cast<std::size_t>(iter)
                          : iter == 32 ? 4096
                                       : rng.NextBounded(4097);
  c.offset = ByteCount{rng.NextBounded(1ULL << 40)};
  if (iter % 3 == 0) {
    c.offset = ByteCount{((1 + rng.NextBounded(4)) << 32) -
                         rng.NextBounded(64)};
  }
  c.data.resize(len);
  PatternSource(c.id, c.offset + len).Read(c.offset, c.data);
  return c;
}

TEST(PatternChecker, AgreesWithPerByteReference) {
  Rng rng(0xC4EC);
  for (int iter = 0; iter < 400; ++iter) {
    CheckerCase c = RandomCheckerCase(rng, iter);
    ASSERT_EQ(CountPatternMismatches(c.id, c.offset, c.data), 0u)
        << "iter " << iter;
    // Overwrite a random share of the bytes with random values (some of
    // which happen to match the pattern) and compare the counts.
    const std::uint64_t share = rng.NextBounded(4);
    for (auto& byte : c.data) {
      if (rng.NextBounded(4) < share) {
        byte = static_cast<std::uint8_t>(rng.NextU64());
      }
    }
    ASSERT_EQ(CountPatternMismatches(c.id, c.offset, c.data),
              CountMismatchesPerByte(c.id, c.offset, c.data))
        << "iter " << iter;
  }
}

TEST(PatternChecker, CountsEveryCorruptedByte) {
  // k distinct bytes flipped to another value give exactly k, wherever
  // they sit: every chunk, not only the first that differs, and the
  // tail past the last whole chunk (the last byte is always among them
  // in every other case).
  Rng rng(0xBADB17E);
  for (int iter = 0; iter < 400; ++iter) {
    CheckerCase c = RandomCheckerCase(rng, iter);
    const std::size_t len = c.data.size();
    std::vector<std::size_t> positions(len);
    for (std::size_t i = 0; i < len; ++i) positions[i] = i;
    const std::size_t k = len == 0 ? 0 : 1 + rng.NextBounded(len);
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(positions[i], positions[i + rng.NextBounded(len - i)]);
    }
    if (iter % 2 == 0 && k > 0) {
      const auto last = std::find(positions.begin(), positions.end(), len - 1);
      std::swap(positions[0], *last);
    }
    for (std::size_t i = 0; i < k; ++i) {
      c.data[positions[i]] ^= static_cast<std::uint8_t>(
          1 + rng.NextBounded(255));
    }
    ASSERT_EQ(CountPatternMismatches(c.id, c.offset, c.data), k)
        << "iter " << iter << " len " << len;
  }
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, BoundedIsUniformish) {
  Rng rng(13);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.NextBounded(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 100) << "bucket " << b;
  }
}

TEST(Rng, ForkIsIndependentOfParentUsage) {
  Rng parent(42);
  Rng child = parent.Fork();
  const std::uint64_t child_first = child.NextU64();
  // The child stream must not replay the parent's.
  Rng parent2(42);
  EXPECT_NE(child_first, parent2.NextU64());
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  const auto cdf = EmpiricalCdf({5, 3, 1, 4, 2});
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].cumulative_probability,
              cdf[i - 1].cumulative_probability);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_probability, 1.0);
}

TEST(Stats, FractionAbove) {
  EXPECT_DOUBLE_EQ(FractionAbove({0.5, 1.5, 2.0, 1.0}, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(FractionAbove({}, 1.0), 0.0);
}

TEST(Stats, SummaryFiveNumbers) {
  const Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
}

TEST(Types, DurationConversions) {
  EXPECT_EQ(SecondsToDuration(1.5), 1'500'000);
  EXPECT_EQ(MillisToDuration(2.5), 2500);
  EXPECT_DOUBLE_EQ(DurationToSeconds(250000), 0.25);
}

}  // namespace
}  // namespace mpq
