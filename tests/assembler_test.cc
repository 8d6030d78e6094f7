// Unit tests for the PacketAssembler layer against fake delegates and a
// captured send function — no simulated network, no Connection. Covers
// the packing order (ACK, control, stream data), delayed-ACK scheduling,
// flow-control gating and the §3 property that frames lost on one path
// go back out on another.
#include "quic/assembler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "cc/newreno.h"
#include "common/buf.h"
#include "common/types.h"
#include "crypto/aead.h"
#include "quic/config.h"
#include "quic/control_queue.h"
#include "quic/path.h"
#include "quic/recovery.h"
#include "quic/scheduler.h"
#include "quic/stats.h"
#include "quic/streams.h"
#include "quic/wire.h"
#include "sim/net.h"
#include "sim/simulator.h"

namespace mpq::quic {
namespace {

/// Everything the assembler needs to run standalone: real streams, flow
/// control, control queue and recovery manager, with this harness
/// standing in for the Connection composer on both delegate interfaces
/// (it routes requeued frames exactly the way Connection does).
struct Harness : AssemblerDelegate, RecoveryDelegate {
  explicit Harness(ByteCount window = kDefaultReceiveWindow)
      : flow(window),
        recovery(sim, stats, 1 * kSecond, 15 * kSecond, *this),
        assembler(sim, config, ConnectionId{7}, stats, flow, streams,
                  control, recovery, *this,
                  [this](sim::Address local, sim::Address remote,
                         std::vector<std::uint8_t> payload) {
                    sent.push_back({local, remote, std::move(payload)});
                  }) {
    config.multipath = true;
    const std::vector<std::uint8_t> client_nonce(16, 0x11);
    const std::vector<std::uint8_t> server_nonce(16, 0x22);
    const auto keys = crypto::DeriveSessionKeys(client_nonce, server_nonce,
                                                config.server_config_secret);
    assembler.SetSealer(
        std::make_unique<crypto::PacketProtection>(keys.client_to_server));
    opener =
        std::make_unique<crypto::PacketProtection>(keys.client_to_server);
    assembler.set_established(true);
  }

  Path& AddPath(PathId id, sim::Address local, sim::Address remote) {
    paths.push_back(std::make_unique<Path>(
        id, local, remote,
        std::make_unique<cc::NewReno>(config.max_packet_size)));
    Path& path = *paths.back();
    recovery.RegisterPath(path);
    assembler.RegisterPath(path);
    return path;
  }

  void AddStream(StreamId id, ByteCount size) {
    streams.emplace(id, std::make_unique<SendStream>(
                            id, std::make_unique<PatternSource>(id, size)));
  }

  /// Decode the most recently captured datagram back into frames.
  std::vector<Frame> DecodeLastPacket() {
    std::vector<Frame> frames;
    if (sent.empty()) {
      ADD_FAILURE() << "no packet was sent";
      return frames;
    }
    const std::vector<std::uint8_t>& payload = sent.back().payload;
    BufReader reader(payload);
    ParsedHeader parsed;
    if (!DecodeHeader(reader, parsed)) {
      ADD_FAILURE() << "bad public header";
      return frames;
    }
    const std::span<const std::uint8_t> all(payload);
    const PacketNumber pn = DecodePacketNumber(
        PacketNumber{0}, parsed.header.packet_number, parsed.pn_length);
    // Decoded STREAM frames view the plaintext: keep it past the return.
    std::vector<std::uint8_t>& plaintext = last_plaintext;
    if (!opener->Open(parsed.header.multipath ? parsed.header.path_id
                                              : PathId{0},
                      pn, all.subspan(0, parsed.header_size),
                      all.subspan(parsed.header_size), plaintext)) {
      ADD_FAILURE() << "packet failed to open";
      return frames;
    }
    EXPECT_TRUE(DecodePayload(plaintext, frames));
    return frames;
  }

  // -- AssemblerDelegate --------------------------------------------------
  void RequestSend() override { ++send_requests; }
  void OnPacketTransmitted() override { ++packets_transmitted; }

  // -- RecoveryDelegate (routed like Connection routes them) --------------
  void OnStreamFrameLost(StreamId stream, ByteCount offset, ByteCount length,
                         bool fin) override {
    streams.at(stream)->OnFrameLost(offset, length, fin);
  }
  void RequeueWindowUpdate(const WindowUpdateFrame& frame) override {
    control.EnqueueShared(Frame{frame});
  }
  void RequeuePathsSnapshot() override {}
  void RequeueControlFrame(Frame frame) override {
    control.EnqueueShared(std::move(frame));
  }
  bool OnPathPotentiallyFailed(PathId) override { return false; }
  void OnPathRecovered(PathId) override {}
  void SendProbePing(PathId) override {}
  void RunAudit() override {}

  struct SentDatagram {
    sim::Address local;
    sim::Address remote;
    std::vector<std::uint8_t> payload;
  };

  sim::Simulator sim;
  ConnectionConfig config;
  ConnectionStats stats;
  FlowController flow;
  std::map<StreamId, std::unique_ptr<SendStream>> streams;
  ControlQueue control;
  RecoveryManager recovery;
  PacketAssembler assembler;
  std::vector<std::unique_ptr<Path>> paths;
  std::vector<SentDatagram> sent;
  /// Plaintext of the last DecodeLastPacket, which its frames view.
  std::vector<std::uint8_t> last_plaintext;
  std::unique_ptr<crypto::PacketProtection> opener;
  int send_requests = 0;
  int packets_transmitted = 0;
};

int FirstIndexOf(const std::vector<Frame>& frames, FrameType type) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    bool match = false;
    switch (type) {
      case FrameType::kHandshake:
        match = std::holds_alternative<HandshakeFrame>(frames[i]);
        break;
      case FrameType::kStream:
        match = std::holds_alternative<StreamFrame>(frames[i]);
        break;
      case FrameType::kAck:
        match = std::holds_alternative<AckFrame>(frames[i]);
        break;
      default:
        break;
    }
    if (match) return static_cast<int>(i);
  }
  return -1;
}

TEST(AssemblerTest, ControlFramesPrecedeStreamData) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  h.AddStream(StreamId{5}, ByteCount{4000});

  // A requeued handshake-cleartext frame sits on the control queue (see
  // recovery_test's LostHandshakeCleartextRequeuedAsControlFrame); the
  // assembler must serve it ahead of any stream data.
  HandshakeFrame chlo;
  chlo.message = HandshakeMessageType::kChlo;
  chlo.nonce.assign(16, 0x42);
  h.control.EnqueueShared(Frame{chlo});

  ASSERT_TRUE(h.assembler.SendOnePacket(path, /*include_stream_data=*/true,
                                        nullptr, nullptr));
  const auto frames = h.DecodeLastPacket();
  const int handshake_at = FirstIndexOf(frames, FrameType::kHandshake);
  const int stream_at = FirstIndexOf(frames, FrameType::kStream);
  ASSERT_GE(handshake_at, 0);
  ASSERT_GE(stream_at, 0);
  EXPECT_LT(handshake_at, stream_at);
  EXPECT_TRUE(h.control.shared_empty());
}

TEST(AssemblerTest, LostFramesFromDeadPathGoOutOnLivePath) {
  Harness h;
  Path& dead = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  Path& live = h.AddPath(PathId{1}, {1, 1}, {2, 1});
  h.AddStream(StreamId{5}, ByteCount{2000});

  std::vector<StreamFrame> first_sent;
  ASSERT_TRUE(h.assembler.SendOnePacket(dead, true, nullptr, &first_sent));
  ASSERT_FALSE(first_sent.empty());
  EXPECT_EQ(first_sent.front().offset, ByteCount{0});

  // The path goes away: write off its in-flight data and requeue the
  // frames (what Connection::RemoveLocalAddress does). The stream data
  // must then leave on the surviving path, retransmit ranges first.
  h.recovery.RequeueLostFrames(PathId{0},
                               dead.OnRetransmissionTimeout(h.sim.now()));
  EXPECT_TRUE(dead.potentially_failed());
  EXPECT_GE(h.stats.frames_retransmitted, 1u);

  ASSERT_TRUE(h.assembler.SendOnePacket(live, true, nullptr, nullptr));
  EXPECT_EQ(h.sent.back().local, live.local_address());
  EXPECT_EQ(h.sent.back().remote, live.remote_address());
  const auto frames = h.DecodeLastPacket();
  const int stream_at = FirstIndexOf(frames, FrameType::kStream);
  ASSERT_GE(stream_at, 0);
  const auto& retransmitted = std::get<StreamFrame>(frames[stream_at]);
  EXPECT_EQ(retransmitted.stream_id, StreamId{5});
  EXPECT_EQ(retransmitted.offset, ByteCount{0});
  EXPECT_TRUE(live.HasInFlight());
}

TEST(AssemblerTest, DelayedAckFiresAfterTimeout) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  ASSERT_TRUE(path.receiver().OnPacketReceived(PacketNumber{1}, h.sim.now()));
  path.NoteRetransmittableReceived();

  h.assembler.MaybeScheduleAck(path, /*out_of_order=*/false);
  EXPECT_TRUE(h.sent.empty());  // armed, not sent

  h.sim.Run();
  ASSERT_EQ(h.sent.size(), 1u);
  const auto frames = h.DecodeLastPacket();
  ASSERT_EQ(frames.size(), 1u);
  const auto* ack = std::get_if<AckFrame>(&frames.front());
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->LargestAcked(), PacketNumber{1});
  EXPECT_GT(ack->ack_delay, 0);
  EXPECT_FALSE(path.HasInFlight());  // ack-only packets are not tracked
}

TEST(AssemblerTest, SecondRetransmittablePacketForcesImmediateAck) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  ASSERT_TRUE(path.receiver().OnPacketReceived(PacketNumber{1}, h.sim.now()));
  path.NoteRetransmittableReceived();
  ASSERT_TRUE(path.receiver().OnPacketReceived(PacketNumber{2}, h.sim.now()));
  path.NoteRetransmittableReceived();

  h.assembler.MaybeScheduleAck(path, /*out_of_order=*/false);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_FALSE(path.ack_pending());
}

TEST(AssemblerTest, OutOfOrderArrivalForcesImmediateAck) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  ASSERT_TRUE(path.receiver().OnPacketReceived(PacketNumber{5}, h.sim.now()));
  path.NoteRetransmittableReceived();

  h.assembler.MaybeScheduleAck(path, /*out_of_order=*/true);
  ASSERT_EQ(h.sent.size(), 1u);
}

TEST(AssemblerTest, PendingAckIsPiggybackedFirst) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  h.AddStream(StreamId{5}, ByteCount{500});
  ASSERT_TRUE(path.receiver().OnPacketReceived(PacketNumber{3}, h.sim.now()));
  path.NoteRetransmittableReceived();

  ASSERT_TRUE(h.assembler.SendOnePacket(path, true, nullptr, nullptr));
  const auto frames = h.DecodeLastPacket();
  ASSERT_GE(frames.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<AckFrame>(frames.front()));
  EXPECT_GE(FirstIndexOf(frames, FrameType::kStream), 1);
  EXPECT_TRUE(path.HasInFlight());  // the stream data makes it tracked
}

TEST(AssemblerTest, FlowControlCapsNewStreamBytes) {
  Harness h(/*window=*/ByteCount{1000});
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  h.AddStream(StreamId{5}, ByteCount{5000});

  while (h.assembler.SendOnePacket(path, true, nullptr, nullptr)) {
  }
  EXPECT_EQ(h.stats.stream_bytes_sent_new, ByteCount{1000});
  EXPECT_FALSE(h.assembler.AnyStreamHasData());
  EXPECT_EQ(h.assembler.SendAllowance(), ByteCount{0});
}

TEST(AssemblerTest, TrackedPingEntersRecovery) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});

  h.assembler.SendPing(path, /*track=*/false);
  EXPECT_FALSE(path.HasInFlight());

  h.assembler.SendPing(path, /*track=*/true);
  EXPECT_TRUE(path.HasInFlight());
  EXPECT_EQ(h.packets_transmitted, 2);
}

TEST(AssemblerTest, ClosedAssemblerRefusesAckOnlySends) {
  Harness h;
  Path& path = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  ASSERT_TRUE(path.receiver().OnPacketReceived(PacketNumber{1}, h.sim.now()));
  path.NoteRetransmittableReceived();

  h.assembler.OnConnectionClosed();
  h.assembler.SendAckOnlyPacket(path);
  h.sim.Run();
  EXPECT_TRUE(h.sent.empty());
}

// ---------------------------------------------------------------------------
// STREAM frames by reference: the sender keeps only (stream, offset,
// length, fin) and re-reads the immutable source for every transmission.

/// The STREAM frames of the last captured packet, with their payloads
/// copied out of the harness's plaintext.
struct SentStreamData {
  StreamFrame frame;
  std::vector<std::uint8_t> bytes;
};
std::vector<SentStreamData> LastPacketStreamData(Harness& h) {
  std::vector<SentStreamData> out;
  for (const Frame& frame : h.DecodeLastPacket()) {
    if (const auto* f = std::get_if<StreamFrame>(&frame)) {
      out.push_back({*f, {f->data.begin(), f->data.end()}});
      out.back().frame.data = {};
    }
  }
  return out;
}

void ExpectPatternBytes(const SentStreamData& sent) {
  ASSERT_EQ(sent.bytes.size(), sent.frame.length.value());
  EXPECT_EQ(CountPatternMismatches(sent.frame.stream_id.value(),
                                   sent.frame.offset, sent.bytes),
            0u);
}

TEST(StreamByReference, LostFrameResentOnOtherPathRereadsSource) {
  Harness h;
  Path& dead = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  Path& live = h.AddPath(PathId{1}, {1, 1}, {2, 1});
  h.AddStream(StreamId{5}, ByteCount{3000});

  std::vector<StreamFrame> first_sent;
  ASSERT_TRUE(h.assembler.SendOnePacket(dead, true, nullptr, &first_sent));
  ASSERT_EQ(first_sent.size(), 1u);
  // What the sender keeps is a descriptor: no payload bytes.
  EXPECT_TRUE(first_sent.front().data.empty());
  EXPECT_GT(first_sent.front().length, 0u);
  const std::vector<SentStreamData> original = LastPacketStreamData(h);
  ASSERT_EQ(original.size(), 1u);

  h.recovery.RequeueLostFrames(PathId{0},
                               dead.OnRetransmissionTimeout(h.sim.now()));
  ASSERT_TRUE(h.assembler.SendOnePacket(live, true, nullptr, nullptr));
  EXPECT_EQ(h.sent.back().local, live.local_address());
  const std::vector<SentStreamData> resent = LastPacketStreamData(h);
  ASSERT_FALSE(resent.empty());
  EXPECT_EQ(resent.front().frame.offset, ByteCount{0});
  EXPECT_EQ(resent.front().frame.length, original.front().frame.length);
  EXPECT_EQ(resent.front().bytes, original.front().bytes);

  // The receiver sees the pattern, byte for byte, from the resent frame.
  RecvStream receiver(StreamId{5});
  std::vector<std::uint8_t> delivered;
  receiver.SetSink([&](ByteCount, std::span<const std::uint8_t> data, bool) {
    delivered.insert(delivered.end(), data.begin(), data.end());
  });
  StreamFrame view = resent.front().frame;
  view.data = resent.front().bytes;
  receiver.OnStreamFrame(view);
  ASSERT_EQ(delivered.size(), resent.front().frame.length.value());
  EXPECT_EQ(CountPatternMismatches(5, ByteCount{0}, delivered), 0u);
}

TEST(StreamByReference, DuplicateEncodesSameBytes) {
  // §3: data sent on the measured path is duplicated onto a path whose
  // RTT is still unknown. The duplicate carries the same descriptors and
  // must encode the same bytes, read again from the source.
  Harness h;
  Path& measured = h.AddPath(PathId{0}, {1, 0}, {2, 0});
  Path& unknown = h.AddPath(PathId{1}, {1, 1}, {2, 1});
  measured.rtt().AddSample(20 * kMillisecond, 0);
  h.AddStream(StreamId{5}, ByteCount{1000});
  h.AddStream(StreamId{7}, ByteCount{1000});

  LowestRttScheduler scheduler;
  const std::vector<Path*> eligible = {&measured, &unknown};
  Path* chosen = scheduler.SelectPath(eligible, h.config.max_packet_size);
  ASSERT_EQ(chosen, &measured);
  const std::vector<Path*> targets =
      scheduler.DuplicationTargets(eligible, chosen, h.config.max_packet_size);
  ASSERT_EQ(targets, std::vector<Path*>{&unknown});

  std::vector<StreamFrame> sent;
  ASSERT_TRUE(h.assembler.SendOnePacket(*chosen, true, nullptr, &sent));
  ASSERT_EQ(sent.size(), 2u);  // one chunk of each stream
  const std::vector<SentStreamData> original = LastPacketStreamData(h);
  ASSERT_TRUE(
      h.assembler.SendOnePacket(*targets.front(), false, &sent, nullptr));
  EXPECT_EQ(h.sent.back().local, unknown.local_address());
  const std::vector<SentStreamData> duplicate = LastPacketStreamData(h);

  ASSERT_EQ(duplicate.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(duplicate[i].frame.stream_id, original[i].frame.stream_id);
    EXPECT_EQ(duplicate[i].frame.offset, original[i].frame.offset);
    EXPECT_EQ(duplicate[i].frame.length, original[i].frame.length);
    EXPECT_EQ(duplicate[i].frame.fin, original[i].frame.fin);
    EXPECT_EQ(duplicate[i].bytes, original[i].bytes);
    ExpectPatternBytes(duplicate[i]);
  }
}

}  // namespace
}  // namespace mpq::quic
