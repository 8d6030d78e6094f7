// Unit tests for the RecoveryManager layer against a fake delegate — no
// simulated network, no Connection. Covers the frame-level requeue rules
// (§3: a frame from a lost packet may be retransmitted on any path), the
// RTO / potentially-failed machinery (§4.3) and the retransmit counters.
#include "quic/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "cc/newreno.h"
#include "common/types.h"
#include "quic/path.h"
#include "quic/stats.h"
#include "quic/wire.h"
#include "sim/simulator.h"

namespace mpq::quic {
namespace {

constexpr ByteCount kMss{1350};

class FakeDelegate : public RecoveryDelegate {
 public:
  void OnStreamFrameLost(StreamId stream, ByteCount offset, ByteCount length,
                         bool fin) override {
    stream_losses.push_back({stream, offset, length, fin});
  }
  void RequeueWindowUpdate(const WindowUpdateFrame& frame) override {
    window_updates.push_back(frame);
  }
  void RequeuePathsSnapshot() override { ++paths_snapshots; }
  void RequeueControlFrame(Frame frame) override {
    control_requeued.push_back(std::move(frame));
  }
  bool OnPathPotentiallyFailed(PathId path) override {
    failed_paths.push_back(path);
    return probe_on_failure;
  }
  void OnPathRecovered(PathId path) override {
    recovered_paths.push_back(path);
  }
  void SendProbePing(PathId path) override { probe_pings.push_back(path); }
  void RequestSend() override { ++send_requests; }
  void RunAudit() override {}

  struct StreamLoss {
    StreamId stream;
    ByteCount offset;
    ByteCount length;
    bool fin;
  };
  std::vector<StreamLoss> stream_losses;
  std::vector<WindowUpdateFrame> window_updates;
  std::vector<Frame> control_requeued;
  std::vector<PathId> failed_paths;
  std::vector<PathId> recovered_paths;
  std::vector<PathId> probe_pings;
  int paths_snapshots = 0;
  int send_requests = 0;
  bool probe_on_failure = true;
};

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : recovery_(sim_, stats_, 1 * kSecond, 15 * kSecond, delegate_),
        path_(PathId{0}, {1, 0}, {2, 0}, std::make_unique<cc::NewReno>(kMss)) {
    recovery_.RegisterPath(path_);
  }

  SentPacket MakeSent(PacketNumber pn, std::vector<Frame> frames) {
    SentPacket packet;
    packet.pn = pn;
    packet.sent_time = sim_.now();
    packet.bytes = kMss;
    packet.frames = std::move(frames);
    return packet;
  }

  StreamFrame MakeStreamFrame(StreamId id, ByteCount offset,
                              std::size_t length, bool fin = false) {
    StreamFrame frame;
    frame.stream_id = id;
    frame.offset = offset;
    frame.length = ByteCount{length};
    frame.fin = fin;
    return frame;
  }

  /// Put one retransmittable packet in flight and let recovery track it.
  void SendTracked(std::vector<Frame> frames) {
    path_.OnPacketSent(path_.AllocatePacketNumber(), sim_.now(), kMss) =
        std::move(frames);
    recovery_.OnPacketTracked(path_);
  }

  sim::Simulator sim_;
  ConnectionStats stats_;
  FakeDelegate delegate_;
  RecoveryManager recovery_;
  Path path_;
};

TEST_F(RecoveryTest, RequeuePreservesStreamFrameOrder) {
  std::vector<SentPacket> lost;
  lost.push_back(MakeSent(
      PacketNumber{1},
      {MakeStreamFrame(StreamId{1}, ByteCount{0}, 500),
       MakeStreamFrame(StreamId{1}, ByteCount{500}, 500)}));
  lost.push_back(MakeSent(
      PacketNumber{2},
      {MakeStreamFrame(StreamId{3}, ByteCount{0}, 200, /*fin=*/true)}));
  recovery_.RequeueLostFrames(PathId{0}, std::move(lost));

  ASSERT_EQ(delegate_.stream_losses.size(), 3u);
  EXPECT_EQ(delegate_.stream_losses[0].stream, StreamId{1});
  EXPECT_EQ(delegate_.stream_losses[0].offset, ByteCount{0});
  EXPECT_EQ(delegate_.stream_losses[1].stream, StreamId{1});
  EXPECT_EQ(delegate_.stream_losses[1].offset, ByteCount{500});
  EXPECT_EQ(delegate_.stream_losses[2].stream, StreamId{3});
  EXPECT_TRUE(delegate_.stream_losses[2].fin);
}

TEST_F(RecoveryTest, LostHandshakeCleartextRequeuedAsControlFrame) {
  // A lost handshake frame must go back out reliably, and through the
  // control queue — which the assembler serves AHEAD of stream data (see
  // assembler_test's ControlFramesPrecedeStreamData for that half).
  HandshakeFrame chlo;
  chlo.message = HandshakeMessageType::kChlo;
  chlo.nonce.assign(16, 0x42);
  std::vector<SentPacket> lost;
  lost.push_back(MakeSent(PacketNumber{1},
                          {Frame{chlo},
                           MakeStreamFrame(StreamId{1}, ByteCount{0}, 100)}));
  recovery_.RequeueLostFrames(PathId{0}, std::move(lost));

  ASSERT_EQ(delegate_.control_requeued.size(), 1u);
  const auto* requeued =
      std::get_if<HandshakeFrame>(&delegate_.control_requeued.front());
  ASSERT_NE(requeued, nullptr);
  EXPECT_EQ(requeued->nonce, chlo.nonce);
  EXPECT_EQ(delegate_.stream_losses.size(), 1u);
}

TEST_F(RecoveryTest, ControlFramesRoutedByType) {
  WindowUpdateFrame window{StreamId{0}, ByteCount{1 << 20}};
  AddAddressFrame add{{{3, 1}}};
  std::vector<SentPacket> lost;
  lost.push_back(MakeSent(PacketNumber{1},
                          {Frame{window}, Frame{PathsFrame{}}, Frame{add}}));
  recovery_.RequeueLostFrames(PathId{0}, std::move(lost));

  ASSERT_EQ(delegate_.window_updates.size(), 1u);
  EXPECT_EQ(delegate_.window_updates.front().max_data, window.max_data);
  EXPECT_EQ(delegate_.paths_snapshots, 1);
  ASSERT_EQ(delegate_.control_requeued.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<AddAddressFrame>(
      delegate_.control_requeued.front()));
}

TEST_F(RecoveryTest, RetransmitStatsCountOnlyRequeuedFrames) {
  // PINGs from lost packets are dropped, not retransmitted (the probe
  // timer re-issues them), so they must not inflate the counters.
  const StreamFrame stream = MakeStreamFrame(StreamId{1}, ByteCount{0}, 300);
  const std::size_t stream_wire_size = FrameWireSize(Frame{stream});
  std::vector<SentPacket> lost;
  lost.push_back(MakeSent(PacketNumber{1}, {Frame{PingFrame{}},
                                            Frame{stream}}));
  recovery_.RequeueLostFrames(PathId{0}, std::move(lost));

  EXPECT_EQ(stats_.frames_retransmitted, 1u);
  EXPECT_EQ(stats_.bytes_retransmitted, ByteCount{stream_wire_size});
  EXPECT_TRUE(delegate_.control_requeued.empty());
  EXPECT_EQ(delegate_.stream_losses.size(), 1u);
}

TEST_F(RecoveryTest, RtoRequeuesMarksPathFailedAndStartsProbing) {
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 1000)});
  ASSERT_TRUE(path_.HasInFlight());

  // Run past the (backed-off) RTO but not to the second probe.
  sim_.Run(sim_.now() + 1500 * kMillisecond);

  EXPECT_EQ(stats_.rto_events, 1u);
  EXPECT_TRUE(path_.potentially_failed());
  ASSERT_EQ(delegate_.failed_paths.size(), 1u);
  EXPECT_EQ(delegate_.failed_paths.front(), PathId{0});
  EXPECT_EQ(delegate_.stream_losses.size(), 1u);
  EXPECT_GE(delegate_.send_requests, 1);
  EXPECT_EQ(stats_.frames_retransmitted, 1u);

  // The probe timer keeps pinging at the configured interval.
  const std::size_t pings_before = delegate_.probe_pings.size();
  sim_.Run(sim_.now() + 2500 * kMillisecond);
  EXPECT_GE(delegate_.probe_pings.size(), pings_before + 2);
}

TEST_F(RecoveryTest, NoProbeTimerWhenDelegateDeclines) {
  // migrate-on-failure mode: the delegate migrates instead of probing.
  delegate_.probe_on_failure = false;
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 1000)});
  sim_.Run(sim_.now() + 5 * kSecond);

  EXPECT_EQ(delegate_.failed_paths.size(), 1u);
  EXPECT_TRUE(delegate_.probe_pings.empty());
}

TEST_F(RecoveryTest, AckRecoversPotentiallyFailedPath) {
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 1000)});
  path_.set_potentially_failed(true);

  AckFrame ack;
  ack.path_id = PathId{0};
  ack.ranges = {{PacketNumber{1}, PacketNumber{1}}};
  recovery_.OnAckReceived(path_, ack);

  EXPECT_FALSE(path_.potentially_failed());
  ASSERT_EQ(delegate_.recovered_paths.size(), 1u);
  EXPECT_EQ(delegate_.recovered_paths.front(), PathId{0});
  EXPECT_FALSE(path_.HasInFlight());
}

TEST_F(RecoveryTest, AckedPingClearsProbeBookkeeping) {
  SendTracked({Frame{PingFrame{}}});
  recovery_.set_ping_probe_outstanding(PathId{0}, true);

  AckFrame ack;
  ack.path_id = PathId{0};
  ack.ranges = {{PacketNumber{1}, PacketNumber{1}}};
  recovery_.OnAckReceived(path_, ack);

  EXPECT_FALSE(recovery_.ping_probe_outstanding(PathId{0}));
}

TEST_F(RecoveryTest, RtoBackoffCappedAtMaxRto) {
  // Chaos regression (long-flap family): without a ceiling the doubled
  // RTO reaches 500 ms << 6 = 32 s, so after an outage heals the path
  // could sit half a minute from its next retransmission. The cap bounds
  // the gap between consecutive RTOs at max_rto (15 s here).
  Duration max_gap = 0;
  for (int i = 0; i < 10; ++i) {
    SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 100)});
    const std::uint64_t events_before = stats_.rto_events;
    const TimePoint sent_at = sim_.now();
    while (stats_.rto_events == events_before) {
      ASSERT_TRUE(sim_.RunOne(10 * 60 * kSecond));
    }
    max_gap = std::max(max_gap, sim_.now() - sent_at);
  }
  EXPECT_EQ(path_.rto_count(), 10);  // the count keeps backing off...
  EXPECT_LE(max_gap, 15 * kSecond + kSecond);  // ...the timer does not
  EXPECT_GT(max_gap, 10 * kSecond);  // and the cap genuinely binds
}

TEST_F(RecoveryTest, OnlyGenuineAckResetsRtoBackoff) {
  // Build up backoff with two RTOs.
  for (int i = 0; i < 2; ++i) {
    SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 100)});
    const std::uint64_t events_before = stats_.rto_events;
    while (stats_.rto_events == events_before) {
      ASSERT_TRUE(sim_.RunOne(10 * 60 * kSecond));
    }
  }
  EXPECT_EQ(path_.rto_count(), 2);

  // An ACK that covers only already-lost packets acks nothing new and
  // must not reset the backoff (stale ACKs surface during flaps).
  AckFrame stale;
  stale.path_id = PathId{0};
  stale.ranges = {{PacketNumber{1}, PacketNumber{2}}};
  recovery_.OnAckReceived(path_, stale);
  EXPECT_EQ(path_.rto_count(), 2);

  // A genuine ACK of in-flight data does.
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 100)});
  AckFrame genuine;
  genuine.path_id = PathId{0};
  genuine.ranges = {{PacketNumber{1}, PacketNumber{3}}};
  recovery_.OnAckReceived(path_, genuine);
  EXPECT_EQ(path_.rto_count(), 0);
}

TEST_F(RecoveryTest, OptimisticAckForUnsentPacketNumbersIsIgnored) {
  // Fuzz regression (forged-frame family, caught by the MPQ_AUDIT
  // largest_acked < next_pn invariant): an ACK acknowledging packet
  // numbers this path never allocated used to be taken at face value.
  // That drags largest_acked past the send horizon, and because
  // packet-threshold loss detection declares everything more than
  // kReorderingThreshold below largest_acked lost, one forged ACK
  // spuriously retransmits the entire in-flight window.
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 1000)});
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{1000}, 1000)});

  AckFrame forged;
  forged.path_id = PathId{0};
  forged.ranges = {{PacketNumber{90}, PacketNumber{120}}};
  recovery_.OnAckReceived(path_, forged);

  EXPECT_EQ(stats_.invalid_acks_ignored, 1u);
  EXPECT_EQ(path_.largest_acked(), PacketNumber{0});
  EXPECT_TRUE(path_.HasInFlight());  // nothing declared lost or acked
  EXPECT_TRUE(delegate_.stream_losses.empty());

  // An honest ACK of what is actually outstanding still works.
  AckFrame genuine;
  genuine.path_id = PathId{0};
  genuine.ranges = {{PacketNumber{1}, PacketNumber{2}}};
  recovery_.OnAckReceived(path_, genuine);
  EXPECT_EQ(path_.largest_acked(), PacketNumber{2});
  EXPECT_FALSE(path_.HasInFlight());
}

TEST_F(RecoveryTest, CloseStopsAllTimers) {
  SendTracked({MakeStreamFrame(StreamId{1}, ByteCount{0}, 1000)});
  recovery_.OnConnectionClosed();
  sim_.Run();

  EXPECT_EQ(stats_.rto_events, 0u);
  EXPECT_TRUE(delegate_.stream_losses.empty());
  EXPECT_TRUE(delegate_.probe_pings.empty());
}

}  // namespace
}  // namespace mpq::quic
