// Property test: encode→decode identity over randomly generated valid
// frames and whole packets, including random frame bundles (the packet
// assembler's output shape) and header/PN truncation at random positions.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.h"
#include "quic/wire.h"

namespace mpq::quic {
namespace {

/// Random valid frame. A STREAM frame's payload is generated into a new
/// buffer in `payloads` and the frame views it, so the frame stays valid
/// as long as `payloads` does.
Frame RandomFrame(Rng& rng,
                  std::deque<std::vector<std::uint8_t>>& payloads) {
  switch (rng.NextBounded(10)) {
    case 0: {
      StreamFrame f;
      f.stream_id = static_cast<StreamId>(rng.NextBounded(1000) + 1);
      f.offset = ByteCount{rng.NextBounded(1ULL << 40)};
      f.fin = rng.NextBool(0.2);
      std::vector<std::uint8_t>& payload =
          payloads.emplace_back(rng.NextBounded(1200));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextU64());
      f.length = ByteCount{payload.size()};
      f.data = payload;
      return f;
    }
    case 1: {
      AckFrame f;
      f.path_id = static_cast<PathId>(rng.NextBounded(8));
      f.ack_delay = static_cast<Duration>(rng.NextBounded(1 << 20));
      PacketNumber cursor{
          rng.NextBounded(1ULL << 30) + 10 * AckFrame::kMaxAckRanges + 10};
      const std::size_t count = rng.NextBounded(64) + 1;
      for (std::size_t i = 0; i < count && cursor > 8; ++i) {
        const PacketNumber largest = cursor;
        const PacketNumber smallest =
            largest - rng.NextBounded(std::min<std::uint64_t>(largest.value(), 5));
        f.ranges.push_back({smallest, largest});
        if (smallest < rng.NextBounded(6) + 2) break;
        cursor = smallest - (rng.NextBounded(4) + 2);
      }
      return f;
    }
    case 2: {
      WindowUpdateFrame f;
      f.stream_id = static_cast<StreamId>(rng.NextBounded(100));
      f.max_data = ByteCount{rng.NextBounded(1ULL << 40)};
      return f;
    }
    case 3:
      return PingFrame{};
    case 4: {
      PathsFrame f;
      const std::size_t count = rng.NextBounded(6);
      for (std::size_t i = 0; i < count; ++i) {
        f.paths.push_back({static_cast<PathId>(i),
                           rng.NextBool(0.3)
                               ? PathStatus::kPotentiallyFailed
                               : PathStatus::kActive,
                           static_cast<Duration>(rng.NextBounded(1 << 22))});
      }
      return f;
    }
    case 5: {
      AddAddressFrame f;
      const std::size_t count = rng.NextBounded(4) + 1;
      for (std::size_t i = 0; i < count; ++i) {
        f.addresses.push_back(
            {static_cast<std::uint16_t>(rng.NextBounded(100)),
             static_cast<std::uint16_t>(rng.NextBounded(4))});
      }
      return f;
    }
    case 6: {
      RemoveAddressFrame f;
      f.addresses.push_back(
          {static_cast<std::uint16_t>(rng.NextBounded(100)),
           static_cast<std::uint16_t>(rng.NextBounded(4))});
      return f;
    }
    case 7: {
      RstStreamFrame f;
      f.stream_id = static_cast<StreamId>(rng.NextBounded(1000) + 1);
      f.error_code = static_cast<std::uint16_t>(rng.NextBounded(1 << 16));
      f.final_offset = ByteCount{rng.NextBounded(1ULL << 40)};
      return f;
    }
    case 8:
      return StopWaitingFrame{static_cast<PathId>(rng.NextBounded(8)),
                              PacketNumber{rng.NextBounded(1ULL << 40) + 1}};
    default: {
      BlockedFrame f;
      f.stream_id = static_cast<StreamId>(rng.NextBounded(100));
      return f;
    }
  }
}

bool FramesEqual(const Frame& a, const Frame& b) {
  // Compare through re-encoding: identical wire bytes == identical frame.
  BufWriter wa, wb;
  EncodeFrame(a, wa);
  EncodeFrame(b, wb);
  return wa.data() == wb.data();
}

TEST(WireProperty, RandomFrameRoundTripIdentity) {
  Rng rng(20170712);
  for (int iter = 0; iter < 5000; ++iter) {
    std::deque<std::vector<std::uint8_t>> payloads;
    const Frame original = RandomFrame(rng, payloads);
    BufWriter writer;
    EncodeFrame(original, writer);
    ASSERT_EQ(writer.size(), FrameWireSize(original)) << "iter " << iter;
    BufReader reader(writer.span());
    Frame decoded;
    ASSERT_TRUE(DecodeFrame(reader, decoded)) << "iter " << iter;
    ASSERT_TRUE(reader.AtEnd()) << "iter " << iter;
    ASSERT_TRUE(FramesEqual(original, decoded)) << "iter " << iter;
  }
}

// Every strict prefix of an encoded frame is malformed: a packet cut short
// fails to decode rather than yielding a shorter frame.
TEST(WireProperty, TruncatedFramesRejected) {
  Rng rng(20260301);
  for (int iter = 0; iter < 2000; ++iter) {
    std::deque<std::vector<std::uint8_t>> payloads;
    const Frame original = RandomFrame(rng, payloads);
    BufWriter writer;
    EncodeFrame(original, writer);
    const std::size_t cut = rng.NextBounded(writer.size());
    BufReader reader(writer.span().subspan(0, cut));
    Frame decoded;
    ASSERT_FALSE(DecodeFrame(reader, decoded))
        << "iter " << iter << ": " << FrameTypeName(original) << " cut to "
        << cut << " of " << writer.size() << " bytes";
  }
}

TEST(WireProperty, RandomFrameBundlesRoundTrip) {
  Rng rng(99);
  for (int iter = 0; iter < 1000; ++iter) {
    std::deque<std::vector<std::uint8_t>> payloads;
    std::vector<Frame> bundle;
    BufWriter writer;
    const std::size_t count = rng.NextBounded(6) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      bundle.push_back(RandomFrame(rng, payloads));
      EncodeFrame(bundle.back(), writer);
    }
    // Optional trailing padding, as the packet assembler may emit.
    if (rng.NextBool(0.3)) {
      const PaddingFrame padding{
          static_cast<std::uint32_t>(rng.NextBounded(50) + 1)};
      bundle.push_back(padding);
      EncodeFrame(Frame{padding}, writer);
    }
    std::vector<Frame> decoded;
    ASSERT_TRUE(DecodePayload(writer.span(), decoded)) << "iter " << iter;
    ASSERT_EQ(decoded.size(), bundle.size()) << "iter " << iter;
    for (std::size_t i = 0; i < bundle.size(); ++i) {
      ASSERT_TRUE(FramesEqual(bundle[i], decoded[i]))
          << "iter " << iter << " frame " << i;
    }
  }
}

TEST(WireProperty, RandomHeaderRoundTripWithTruncation) {
  Rng rng(7);
  for (int iter = 0; iter < 5000; ++iter) {
    PacketHeader header;
    header.cid = rng.NextU64();
    header.multipath = rng.NextBool(0.5);
    header.path_id = static_cast<PathId>(rng.NextBounded(8));
    const PacketNumber largest_acked{rng.NextBounded(1ULL << 34)};
    // Receiver state close to the sender's: largest seen within the
    // in-flight window of what is being sent.
    header.packet_number =
        largest_acked + 1 + rng.NextBounded(1 << 12);
    const PacketNumber largest_seen =
        header.packet_number - 1 - rng.NextBounded(16);

    BufWriter writer;
    EncodeHeader(header, largest_acked, writer);
    BufReader reader(writer.span());
    ParsedHeader parsed;
    ASSERT_TRUE(DecodeHeader(reader, parsed));
    ASSERT_EQ(parsed.header.cid, header.cid);
    ASSERT_EQ(parsed.header.multipath, header.multipath);
    if (header.multipath) {
      ASSERT_EQ(parsed.header.path_id, header.path_id);
    }
    ASSERT_EQ(DecodePacketNumber(largest_seen, parsed.header.packet_number,
                                 parsed.pn_length),
              header.packet_number)
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace mpq::quic
