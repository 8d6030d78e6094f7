// Unit tests for the common toolkit: codecs, RNG determinism, statistics.
#include <gtest/gtest.h>

#include <cstdint>
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
