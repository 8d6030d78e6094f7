// Wire-format tests: public-header encode/decode (including packet-number
// truncation/reconstruction), every frame type's round trip, ACK range
// encoding up to the 256-range cap, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/buf.h"
#include "common/rng.h"
#include "quic/wire.h"

namespace mpq::quic {
namespace {

TEST(Header, RoundTripSinglePath) {
  PacketHeader h;
  h.cid = 0xDEADBEEFCAFEF00DULL;
  h.packet_number = PacketNumber{5};
  h.multipath = false;
  BufWriter w;
  EncodeHeader(h, /*largest_acked=*/PacketNumber{0}, w);
  BufReader r(w.span());
  ParsedHeader parsed;
  ASSERT_TRUE(DecodeHeader(r, parsed));
  EXPECT_EQ(parsed.header.cid, h.cid);
  EXPECT_FALSE(parsed.header.multipath);
  EXPECT_FALSE(parsed.header.handshake);
  EXPECT_EQ(DecodePacketNumber(PacketNumber{4}, parsed.header.packet_number,
                               parsed.pn_length),
            5u);
  EXPECT_EQ(parsed.header_size, w.size());
}

TEST(Header, MultipathCarriesPathId) {
  PacketHeader h;
  h.cid = 42;
  h.path_id = PathId{7};
  h.packet_number = PacketNumber{1};
  h.multipath = true;
  BufWriter w;
  EncodeHeader(h, PacketNumber{0}, w);
  BufReader r(w.span());
  ParsedHeader parsed;
  ASSERT_TRUE(DecodeHeader(r, parsed));
  EXPECT_TRUE(parsed.header.multipath);
  EXPECT_EQ(parsed.header.path_id, 7);
  // Multipath adds exactly one byte over the single-path header.
  BufWriter w2;
  h.multipath = false;
  EncodeHeader(h, PacketNumber{0}, w2);
  EXPECT_EQ(w.size(), w2.size() + 1);
}

TEST(Header, PacketNumberLengthGrowsWithDistance) {
  // The encoding must cover 2*distance+1 values.
  EXPECT_EQ(PacketNumberLength(PacketNumber{1}, PacketNumber{0}), 1u);
  EXPECT_EQ(PacketNumberLength(PacketNumber{127}, PacketNumber{0}), 1u);   // 255 < 2^8
  EXPECT_EQ(PacketNumberLength(PacketNumber{128}, PacketNumber{0}), 2u);   // 257 > 2^8
  EXPECT_EQ(PacketNumberLength(PacketNumber{100}, PacketNumber{99}), 1u);
  EXPECT_EQ(PacketNumberLength(PacketNumber{40000}, PacketNumber{0}), 4u);  // 80001 > 2^16
  EXPECT_EQ(PacketNumberLength(PacketNumber{1ULL << 40}, PacketNumber{0}), 8u);
}

class PnReconstruction
    : public ::testing::TestWithParam<std::pair<PacketNumber, PacketNumber>> {
};

TEST_P(PnReconstruction, TruncateAndRecover) {
  const auto [largest_acked, pn] = GetParam();
  PacketHeader h;
  h.cid = 1;
  h.packet_number = pn;
  BufWriter w;
  EncodeHeader(h, largest_acked, w);
  BufReader r(w.span());
  ParsedHeader parsed;
  ASSERT_TRUE(DecodeHeader(r, parsed));
  // Receiver has seen up to pn-1 (in-order arrival).
  EXPECT_EQ(DecodePacketNumber(pn - 1, parsed.header.packet_number,
                               parsed.pn_length),
            pn);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PnReconstruction,
    ::testing::Values(std::pair<PacketNumber, PacketNumber>{0, 1},
                      std::pair<PacketNumber, PacketNumber>{0, 2},
                      std::pair<PacketNumber, PacketNumber>{10, 11},
                      std::pair<PacketNumber, PacketNumber>{100, 130},
                      std::pair<PacketNumber, PacketNumber>{1000, 1255},
                      std::pair<PacketNumber, PacketNumber>{65000, 65100},
                      std::pair<PacketNumber, PacketNumber>{1 << 20,
                                                            (1 << 20) + 900},
                      std::pair<PacketNumber, PacketNumber>{1ULL << 33,
                                                            (1ULL << 33) +
                                                                5000}));

TEST(PnReconstructionEdge, ReorderedBelowLargestSeen) {
  // Largest seen 200, packet 198 arrives late with a 1-byte PN.
  PacketHeader h;
  h.cid = 1;
  h.packet_number = PacketNumber{198};
  BufWriter w;
  EncodeHeader(h, /*largest_acked=*/PacketNumber{197}, w);
  BufReader r(w.span());
  ParsedHeader parsed;
  ASSERT_TRUE(DecodeHeader(r, parsed));
  EXPECT_EQ(DecodePacketNumber(PacketNumber{200}, parsed.header.packet_number,
                               parsed.pn_length),
            198u);
}

// ---------------------------------------------------------------------------
// Frames

Frame RoundTrip(const Frame& in) {
  BufWriter w;
  EncodeFrame(in, w);
  EXPECT_EQ(w.size(), FrameWireSize(in));
  BufReader r(w.span());
  Frame out;
  EXPECT_TRUE(DecodeFrame(r, out));
  EXPECT_TRUE(r.AtEnd());
  return out;
}

TEST(Frames, StreamRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  StreamFrame f;
  f.stream_id = StreamId{3};
  f.offset = ByteCount{123456};
  f.length = ByteCount{payload.size()};
  f.fin = true;
  f.data = payload;
  // Decoded frames view the encoded bytes, so `w` must outlive `out`
  // (RoundTrip's buffer would not).
  BufWriter w;
  EncodeFrame(f, w);
  EXPECT_EQ(w.size(), FrameWireSize(f));
  BufReader r(w.span());
  Frame decoded;
  ASSERT_TRUE(DecodeFrame(r, decoded));
  EXPECT_TRUE(r.AtEnd());
  const auto out = std::get<StreamFrame>(decoded);
  EXPECT_EQ(out.stream_id, f.stream_id);
  EXPECT_EQ(out.offset, f.offset);
  EXPECT_EQ(out.length, f.length);
  EXPECT_EQ(out.fin, f.fin);
  EXPECT_EQ(std::vector<std::uint8_t>(out.data.begin(), out.data.end()),
            payload);
  // The decoded payload is a view into the encoded bytes, not a copy.
  EXPECT_EQ(out.data.data() + out.data.size(), w.span().data() + w.size());
}

TEST(Frames, StreamHeaderPlusPayloadEqualsWholeFrame) {
  // The assembler encodes a descriptor's header and appends the payload
  // from the source; that must be byte-identical to EncodeFrame.
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const StreamFrame f{StreamId{5}, ByteCount{70000}, ByteCount{3}, true,
                      payload};
  BufWriter whole;
  EncodeFrame(f, whole);
  BufWriter split;
  EncodeStreamFrameHeader(f, split);
  const std::span<std::uint8_t> room = split.AppendSpan(payload.size());
  std::copy(payload.begin(), payload.end(), room.begin());
  EXPECT_EQ(whole.data(), split.data());
  EXPECT_EQ(whole.size(), FrameWireSize(f));
}

TEST(Frames, EmptyStreamFrameWithFin) {
  StreamFrame f;
  f.stream_id = StreamId{9};
  f.offset = ByteCount{1000};
  f.fin = true;
  const auto out = std::get<StreamFrame>(RoundTrip(f));
  EXPECT_TRUE(out.data.empty());
  EXPECT_EQ(out.length, 0u);
  EXPECT_TRUE(out.fin);
}

TEST(Frames, AckRoundTripMultipleRanges) {
  AckFrame f;
  f.path_id = PathId{2};
  f.ack_delay = 12345;
  f.ranges = {{PacketNumber{90}, PacketNumber{100}},
              {PacketNumber{70}, PacketNumber{80}},
              {PacketNumber{10}, PacketNumber{50}},
              {PacketNumber{3}, PacketNumber{3}}};
  const auto out = std::get<AckFrame>(RoundTrip(f));
  EXPECT_EQ(out.path_id, 2);
  EXPECT_EQ(out.ack_delay, 12345);
  ASSERT_EQ(out.ranges.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out.ranges[i].smallest, f.ranges[i].smallest);
    EXPECT_EQ(out.ranges[i].largest, f.ranges[i].largest);
  }
  EXPECT_EQ(out.LargestAcked(), 100u);
}

TEST(Frames, AckSingleRange) {
  AckFrame f;
  f.path_id = PathId{0};
  f.ranges = {{PacketNumber{1}, PacketNumber{1}}};
  const auto out = std::get<AckFrame>(RoundTrip(f));
  ASSERT_EQ(out.ranges.size(), 1u);
  EXPECT_EQ(out.ranges[0].smallest, 1u);
  EXPECT_EQ(out.ranges[0].largest, 1u);
}

TEST(Frames, AckMaxRangesRoundTrip) {
  // 256 alternating ranges — the QUIC-side capacity the paper contrasts
  // with TCP's 2-3 SACK blocks.
  AckFrame f;
  f.path_id = PathId{1};
  PacketNumber pn = PacketNumber{10 * AckFrame::kMaxAckRanges};
  for (std::size_t i = 0; i < AckFrame::kMaxAckRanges; ++i) {
    f.ranges.push_back({pn, pn + 3});
    pn -= 10;
  }
  const auto out = std::get<AckFrame>(RoundTrip(f));
  EXPECT_EQ(out.ranges.size(), AckFrame::kMaxAckRanges);
}

TEST(Frames, AckBeyondMaxRangesRejectedOnDecode) {
  BufWriter w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kAck));
  w.WriteU8(0);                                      // path id
  w.WriteVarint(0);                                  // delay
  w.WriteVarint(AckFrame::kMaxAckRanges + 1);        // too many ranges
  w.WriteVarint(100000);
  w.WriteVarint(1);
  BufReader r(w.span());
  Frame out;
  EXPECT_FALSE(DecodeFrame(r, out));
}

TEST(Frames, WindowUpdateRoundTrip) {
  WindowUpdateFrame f;
  f.stream_id = StreamId{0};
  f.max_data = ByteCount{16 * 1024 * 1024};
  const auto out = std::get<WindowUpdateFrame>(RoundTrip(f));
  EXPECT_EQ(out.stream_id, 0u);
  EXPECT_EQ(out.max_data, f.max_data);
}

TEST(Frames, HandshakeRoundTrip) {
  HandshakeFrame f;
  f.message = HandshakeMessageType::kShlo;
  f.version = kVersionMpq1;
  f.nonce = {9, 8, 7, 6};
  f.peer_addresses = {{2, 0}, {2, 1}};
  const auto out = std::get<HandshakeFrame>(RoundTrip(f));
  EXPECT_EQ(out.message, HandshakeMessageType::kShlo);
  EXPECT_EQ(out.version, kVersionMpq1);
  EXPECT_EQ(out.nonce, f.nonce);
  ASSERT_EQ(out.peer_addresses.size(), 2u);
  EXPECT_EQ(out.peer_addresses[1].iface, 1);
}

TEST(Frames, AddAddressRoundTrip) {
  AddAddressFrame f;
  f.addresses = {{5, 0}, {5, 1}, {5, 2}};
  const auto out = std::get<AddAddressFrame>(RoundTrip(f));
  ASSERT_EQ(out.addresses.size(), 3u);
  EXPECT_EQ(out.addresses[2].iface, 2);
}

TEST(Frames, RemoveAddressRoundTrip) {
  RemoveAddressFrame f;
  f.addresses = {{1, 0}, {1, 1}};
  const auto out = std::get<RemoveAddressFrame>(RoundTrip(f));
  ASSERT_EQ(out.addresses.size(), 2u);
  EXPECT_EQ(out.addresses[1].iface, 1);
  EXPECT_TRUE(IsRetransmittable(Frame{RemoveAddressFrame{}}));
}

TEST(Frames, PathsRoundTrip) {
  PathsFrame f;
  f.paths = {{PathId{0}, PathStatus::kActive, 15000},
             {PathId{1}, PathStatus::kPotentiallyFailed, 250000}};
  const auto out = std::get<PathsFrame>(RoundTrip(f));
  ASSERT_EQ(out.paths.size(), 2u);
  EXPECT_EQ(out.paths[0].srtt, 15000);
  EXPECT_EQ(out.paths[1].status, PathStatus::kPotentiallyFailed);
}

TEST(Frames, ConnectionCloseRoundTrip) {
  ConnectionCloseFrame f;
  f.error_code = 42;
  f.reason = "done";
  const auto out = std::get<ConnectionCloseFrame>(RoundTrip(f));
  EXPECT_EQ(out.error_code, 42);
  EXPECT_EQ(out.reason, "done");
}

TEST(Frames, RstStreamRoundTrip) {
  RstStreamFrame f;
  f.stream_id = StreamId{11};
  f.error_code = 3;
  f.final_offset = ByteCount{999999};
  const auto out = std::get<RstStreamFrame>(RoundTrip(f));
  EXPECT_EQ(out.final_offset, 999999u);
}

TEST(Frames, PingAndBlockedRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<PingFrame>(RoundTrip(PingFrame{})));
  BlockedFrame b;
  b.stream_id = StreamId{4};
  EXPECT_EQ(std::get<BlockedFrame>(RoundTrip(b)).stream_id, 4u);
}

TEST(Frames, StopWaitingRoundTrip) {
  for (const std::uint64_t least_unacked : {1ULL, 300ULL, 1ULL << 40}) {
    const StopWaitingFrame f{PathId{2}, PacketNumber{least_unacked}};
    const auto out = std::get<StopWaitingFrame>(RoundTrip(f));
    EXPECT_EQ(out.path_id, 2u);
    EXPECT_EQ(out.least_unacked, least_unacked);
  }
  EXPECT_STREQ(FrameTypeName(Frame{StopWaitingFrame{}}), "STOP_WAITING");
  // Not retransmittable, so a packet of ACK + STOP_WAITING is ack-only.
  EXPECT_FALSE(IsRetransmittable(Frame{StopWaitingFrame{}}));
}

TEST(Frames, PayloadWithTrailingPadding) {
  BufWriter w;
  EncodeFrame(PingFrame{}, w);
  const std::vector<std::uint8_t> payload = {1, 2};
  EncodeFrame(
      StreamFrame{StreamId{3}, ByteCount{0}, ByteCount{2}, false, payload}, w);
  EncodeFrame(PaddingFrame{100}, w);
  std::vector<Frame> frames;
  ASSERT_TRUE(DecodePayload(w.span(), frames));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<PingFrame>(frames[0]));
  EXPECT_TRUE(std::holds_alternative<StreamFrame>(frames[1]));
  EXPECT_EQ(std::get<PaddingFrame>(frames[2]).length, 100u);
}

TEST(Frames, RetransmittabilityClassification) {
  EXPECT_FALSE(IsRetransmittable(Frame{AckFrame{}}));
  EXPECT_FALSE(IsRetransmittable(Frame{PaddingFrame{}}));
  EXPECT_TRUE(IsRetransmittable(Frame{PingFrame{}}));
  EXPECT_TRUE(IsRetransmittable(Frame{StreamFrame{}}));
  EXPECT_TRUE(IsRetransmittable(Frame{WindowUpdateFrame{}}));
  EXPECT_TRUE(IsRetransmittable(Frame{PathsFrame{}}));
}

TEST(Frames, MalformedInputsRejected) {
  // Unknown frame type.
  {
    const std::uint8_t bytes[] = {0x7F};
    BufReader r(bytes, sizeof(bytes));
    Frame out;
    EXPECT_FALSE(DecodeFrame(r, out));
  }
  // Truncated stream frame (length says 10, only 2 present).
  {
    BufWriter w;
    w.WriteU8(static_cast<std::uint8_t>(FrameType::kStream));
    w.WriteVarint(3);
    w.WriteVarint(0);
    w.WriteVarint(10);
    w.WriteU8(0);
    w.WriteU8(1);
    w.WriteU8(2);
    BufReader r(w.span());
    Frame out;
    EXPECT_FALSE(DecodeFrame(r, out));
  }
  // ACK with an impossible gap (overlapping ranges).
  {
    BufWriter w;
    w.WriteU8(static_cast<std::uint8_t>(FrameType::kAck));
    w.WriteU8(0);
    w.WriteVarint(0);
    w.WriteVarint(2);
    w.WriteVarint(100);  // largest
    w.WriteVarint(5);    // first range 95..100
    w.WriteVarint(1);    // gap of 1: adjacent/overlap — illegal
    w.WriteVarint(5);
    BufReader r(w.span());
    Frame out;
    EXPECT_FALSE(DecodeFrame(r, out));
  }
  // Empty input.
  {
    BufReader r(std::span<const std::uint8_t>{});
    Frame out;
    EXPECT_FALSE(DecodeFrame(r, out));
  }
}

TEST(Frames, FuzzDecodeNeverCrashes) {
  // Random bytes must never crash the decoder (they may or may not parse).
  Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.NextBounded(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.NextU64());
    std::vector<Frame> frames;
    DecodePayload(junk, frames);  // result irrelevant; absence of UB is the test
  }
  SUCCEED();
}

}  // namespace
}  // namespace mpq::quic
