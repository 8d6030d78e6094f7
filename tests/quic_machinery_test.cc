// Tests for the QUIC support machinery: RTT estimation, received-packet
// tracking, stream send/receive (reassembly, retransmission ranges), flow
// control, per-path loss detection, and the scheduler strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "cc/newreno.h"
#include "quic/ack_tracker.h"
#include "quic/path.h"
#include "quic/rtt.h"
#include "quic/scheduler.h"
#include "quic/streams.h"

namespace mpq::quic {
namespace {

// ---------------------------------------------------------------------------
// RttEstimator

TEST(Rtt, FirstSampleInitializes) {
  RttEstimator rtt;
  EXPECT_FALSE(rtt.has_sample());
  rtt.AddSample(100 * kMillisecond, 0);
  EXPECT_TRUE(rtt.has_sample());
  EXPECT_EQ(rtt.smoothed(), 100 * kMillisecond);
  EXPECT_EQ(rtt.variance(), 50 * kMillisecond);
}

TEST(Rtt, SmoothingConverges) {
  RttEstimator rtt;
  for (int i = 0; i < 100; ++i) rtt.AddSample(80 * kMillisecond, 0);
  EXPECT_NEAR(static_cast<double>(rtt.smoothed()),
              static_cast<double>(80 * kMillisecond), 1000.0);
  EXPECT_LT(rtt.variance(), 2 * kMillisecond);
}

TEST(Rtt, AckDelaySubtractedWhenSafe) {
  RttEstimator rtt;
  rtt.AddSample(50 * kMillisecond, 0);  // min_rtt = 50ms
  rtt.AddSample(80 * kMillisecond, 20 * kMillisecond);
  // The adjusted sample is 60 ms; smoothed = 7/8*50 + 1/8*60 = 51.25 ms.
  EXPECT_NEAR(static_cast<double>(rtt.smoothed()), 51250.0, 100.0);
}

TEST(Rtt, AckDelayNotSubtractedBelowMin) {
  RttEstimator rtt;
  rtt.AddSample(50 * kMillisecond, 0);
  // Subtracting 30 ms would push below min_rtt: keep the raw sample.
  rtt.AddSample(60 * kMillisecond, 30 * kMillisecond);
  EXPECT_EQ(rtt.latest(), 60 * kMillisecond);
}

TEST(Rtt, RtoHasFloor) {
  RttEstimator rtt;
  EXPECT_EQ(rtt.Rto(), RttEstimator::kDefaultRto);
  for (int i = 0; i < 50; ++i) rtt.AddSample(1 * kMillisecond, 0);
  EXPECT_GE(rtt.Rto(), RttEstimator::kMinRto);
}

// ---------------------------------------------------------------------------
// ReceivedPacketTracker

TEST(AckTracker, InOrderBuildsSingleRange) {
  ReceivedPacketTracker t;
  for (PacketNumber pn = PacketNumber{1}; pn <= 5; ++pn) {
    EXPECT_TRUE(t.OnPacketReceived(pn, static_cast<TimePoint>(pn.value()) * 100));
  }
  const auto ranges = t.BuildAckRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].smallest, 1u);
  EXPECT_EQ(ranges[0].largest, 5u);
}

TEST(AckTracker, DuplicatesRejected) {
  ReceivedPacketTracker t;
  EXPECT_TRUE(t.OnPacketReceived(PacketNumber{3}, 0));
  EXPECT_FALSE(t.OnPacketReceived(PacketNumber{3}, 0));
  EXPECT_TRUE(t.OnPacketReceived(PacketNumber{1}, 0));
  EXPECT_FALSE(t.OnPacketReceived(PacketNumber{1}, 0));
  EXPECT_TRUE(t.AlreadyReceived(PacketNumber{3}));
  EXPECT_FALSE(t.AlreadyReceived(PacketNumber{2}));
}

TEST(AckTracker, GapsProduceMultipleRanges) {
  ReceivedPacketTracker t;
  for (PacketNumber pn : {PacketNumber{1}, PacketNumber{2}, PacketNumber{5},
                          PacketNumber{6}, PacketNumber{9}}) t.OnPacketReceived(pn, 0);
  const auto ranges = t.BuildAckRanges();
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].largest, 9u);
  EXPECT_EQ(ranges[0].smallest, 9u);
  EXPECT_EQ(ranges[1].largest, 6u);
  EXPECT_EQ(ranges[1].smallest, 5u);
  EXPECT_EQ(ranges[2].largest, 2u);
  EXPECT_EQ(ranges[2].smallest, 1u);
}

TEST(AckTracker, FillingGapCoalesces) {
  ReceivedPacketTracker t;
  for (PacketNumber pn : {PacketNumber{1}, PacketNumber{3}}) t.OnPacketReceived(pn, 0);
  EXPECT_EQ(t.BuildAckRanges().size(), 2u);
  t.OnPacketReceived(PacketNumber{2}, 0);
  const auto ranges = t.BuildAckRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].smallest, 1u);
  EXPECT_EQ(ranges[0].largest, 3u);
}

TEST(AckTracker, CapsAtMaxRangesDroppingOldest) {
  ReceivedPacketTracker t;
  // 300 isolated packets: 2, 4, 6, ... — more distinct ranges than fit.
  for (PacketNumber i = PacketNumber{1}; i <= 300; ++i) t.OnPacketReceived(2 * i, 0);
  const auto ranges = t.BuildAckRanges();
  ASSERT_EQ(ranges.size(), AckFrame::kMaxAckRanges);
  // The highest PNs must be retained (they are the actionable ones).
  EXPECT_EQ(ranges.front().largest, 600u);
}

TEST(AckTracker, LargestTimeTracked) {
  ReceivedPacketTracker t;
  t.OnPacketReceived(PacketNumber{1}, 100);
  t.OnPacketReceived(PacketNumber{5}, 200);
  t.OnPacketReceived(PacketNumber{3}, 300);  // reordered: does not update largest time
  EXPECT_EQ(t.largest_received(), 5u);
  EXPECT_EQ(t.largest_received_time(), 200);
}

// ---------------------------------------------------------------------------
// SendStream / RecvStream

/// A receive-side STREAM frame: a view of `bytes`, as DecodeFrame yields
/// one into the opened plaintext. `bytes` must outlive the frame's use.
StreamFrame RecvFrame(ByteCount offset, std::span<const std::uint8_t> bytes,
                      bool fin = false) {
  return StreamFrame{StreamId{3}, offset, ByteCount{bytes.size()}, fin,
                     bytes};
}

TEST(SendStream, ChunksRespectBudgets) {
  SendStream s(StreamId{3}, std::make_unique<PatternSource>(3, ByteCount{3000}));
  StreamFrame f;
  auto r = s.NextFrame(/*max_payload=*/ByteCount{1000}, /*allowance=*/ByteCount{10000}, f);
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(r.new_bytes, 1000u);
  EXPECT_EQ(f.offset, 0u);
  EXPECT_FALSE(f.fin);
  r = s.NextFrame(ByteCount{1000}, ByteCount{500}, f);  // connection window only allows 500
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(f.length, 500u);
  r = s.NextFrame(ByteCount{5000}, ByteCount{100000}, f);
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(f.length, 1500u);
  EXPECT_TRUE(f.fin);
  EXPECT_TRUE(s.AllDataSentOnce());
  EXPECT_FALSE(s.NextFrame(ByteCount{1000}, ByteCount{1000}, f).produced);  // nothing left
}

TEST(SendStream, BlockedByStreamWindow) {
  SendStream s(StreamId{3}, std::make_unique<PatternSource>(3, ByteCount{10000}));
  StreamFrame f;
  // Stream window starts at the default (16 MB) — shrink indirectly by
  // constructing a fresh stream and never raising the window: instead
  // verify the connection allowance alone can block.
  EXPECT_FALSE(s.NextFrame(ByteCount{1000}, /*allowance=*/ByteCount{0}, f).produced);
  EXPECT_FALSE(s.HasDataToSend(ByteCount{0}));
  EXPECT_TRUE(s.HasDataToSend(ByteCount{1}));
}

TEST(SendStream, RetransmitRangesTakePriorityAndCoalesce) {
  SendStream s(StreamId{3}, std::make_unique<PatternSource>(3, ByteCount{10000}));
  StreamFrame f;
  while (s.NextFrame(ByteCount{1000}, ByteCount{100000}, f).produced) {
  }
  s.OnFrameLost(ByteCount{1000}, ByteCount{500}, false);
  s.OnFrameLost(ByteCount{1500}, ByteCount{500}, false);  // adjacent: coalesces to [1000,2000)
  s.OnFrameLost(ByteCount{5000}, ByteCount{100}, false);
  auto r = s.NextFrame(ByteCount{2000}, ByteCount{0}, f);  // no allowance needed for rtx
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(r.new_bytes, 0u);
  EXPECT_EQ(f.offset, 1000u);
  EXPECT_EQ(f.length, 1000u);
  r = s.NextFrame(ByteCount{2000}, ByteCount{0}, f);
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(f.offset, 5000u);
  EXPECT_EQ(f.length, 100u);
  EXPECT_FALSE(s.NextFrame(ByteCount{2000}, ByteCount{0}, f).produced);
}

TEST(SendStream, LostFinIsRetransmitted) {
  SendStream s(StreamId{3}, std::make_unique<PatternSource>(3, ByteCount{100}));
  StreamFrame f;
  ASSERT_TRUE(s.NextFrame(ByteCount{1000}, ByteCount{1000}, f).produced);
  ASSERT_TRUE(f.fin);
  s.OnFrameLost(ByteCount{0}, ByteCount{100}, true);
  ASSERT_TRUE(s.NextFrame(ByteCount{1000}, ByteCount{0}, f).produced);
  EXPECT_TRUE(f.fin);
  EXPECT_EQ(f.offset, 0u);
  EXPECT_EQ(f.length, 100u);
}

TEST(SendStream, RetransmitChunkSplitKeepsRemainder) {
  SendStream s(StreamId{3}, std::make_unique<PatternSource>(3, ByteCount{10000}));
  StreamFrame f;
  while (s.NextFrame(ByteCount{1000}, ByteCount{100000}, f).produced) {
  }
  s.OnFrameLost(ByteCount{0}, ByteCount{3000}, false);
  auto r = s.NextFrame(ByteCount{1200}, ByteCount{0}, f);
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(f.offset, 0u);
  EXPECT_EQ(f.length, 1200u);
  r = s.NextFrame(ByteCount{5000}, ByteCount{0}, f);
  ASSERT_TRUE(r.produced);
  EXPECT_EQ(f.offset, 1200u);
  EXPECT_EQ(f.length, 1800u);
}

TEST(RecvStream, InOrderDelivery) {
  RecvStream r(StreamId{3});
  ByteCount delivered{};
  bool done = false;
  r.SetSink([&](ByteCount offset, std::span<const std::uint8_t> data,
                bool fin) {
    EXPECT_EQ(offset, delivered);
    delivered += data.size();
    done = fin;
  });
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {4, 5};
  EXPECT_EQ(r.OnStreamFrame(RecvFrame(ByteCount{0}, first)), 3u);
  EXPECT_EQ(r.OnStreamFrame(RecvFrame(ByteCount{3}, second, /*fin=*/true)),
            2u);
  EXPECT_EQ(delivered, 5u);
  EXPECT_TRUE(done);
  EXPECT_TRUE(r.finished());
}

TEST(RecvStream, OutOfOrderBuffersThenDelivers) {
  RecvStream r(StreamId{3});
  ByteCount delivered{};
  r.SetSink([&](ByteCount, std::span<const std::uint8_t> data, bool) {
    delivered += data.size();
  });
  const std::vector<std::uint8_t> late(50, 7);
  const std::vector<std::uint8_t> early(100, 8);
  r.OnStreamFrame(RecvFrame(ByteCount{100}, late));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(r.buffered_bytes(), 50u);
  r.OnStreamFrame(RecvFrame(ByteCount{0}, early));
  EXPECT_EQ(delivered, 150u);
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(RecvStream, DuplicateAndOverlapHandled) {
  RecvStream r(StreamId{3});
  ByteCount delivered{};
  r.SetSink([&](ByteCount, std::span<const std::uint8_t> data, bool) {
    delivered += data.size();
  });
  const std::vector<std::uint8_t> ones(100, 1);
  const std::vector<std::uint8_t> twos(100, 2);
  EXPECT_EQ(r.OnStreamFrame(RecvFrame(ByteCount{0}, ones)), 100u);
  // Exact duplicate: no window growth.
  EXPECT_EQ(r.OnStreamFrame(RecvFrame(ByteCount{0}, ones)), 0u);
  // Overlaps the delivered prefix.
  EXPECT_EQ(r.OnStreamFrame(RecvFrame(ByteCount{50}, twos)), 50u);
  EXPECT_EQ(delivered, 150u);  // every byte delivered exactly once
}

TEST(RecvStream, OutOfOrderViewIsCopiedBeforeBufferReuse) {
  // A received frame views the packet's plaintext, and the dispatcher
  // reuses that buffer for the next packet. A segment buffered out of
  // order must therefore be a copy: overwrite the buffer, then free it
  // (ASan reports any read through a retained view), and the delivered
  // bytes must still be the original ones.
  RecvStream r(StreamId{3});
  std::vector<std::uint8_t> got;
  r.SetSink([&](ByteCount offset, std::span<const std::uint8_t> data, bool) {
    EXPECT_EQ(offset, ByteCount{got.size()});
    got.insert(got.end(), data.begin(), data.end());
  });
  auto packet = std::make_unique<std::vector<std::uint8_t>>(100);
  for (std::size_t i = 0; i < packet->size(); ++i) {
    (*packet)[i] = PatternByte(3, ByteCount{100 + i});
  }
  r.OnStreamFrame(RecvFrame(ByteCount{100}, *packet));
  EXPECT_EQ(r.buffered_bytes(), 100u);
  EXPECT_TRUE(got.empty());
  std::fill(packet->begin(), packet->end(), std::uint8_t{0xEE});
  packet.reset();

  std::vector<std::uint8_t> head(100);
  for (std::size_t i = 0; i < head.size(); ++i) {
    head[i] = PatternByte(3, ByteCount{i});
  }
  r.OnStreamFrame(RecvFrame(ByteCount{0}, head, /*fin=*/false));
  ASSERT_EQ(got.size(), 200u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], PatternByte(3, ByteCount{i})) << "byte " << i;
  }
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(RecvStream, BareFinCompletesStream) {
  RecvStream r(StreamId{3});
  bool done = false;
  r.SetSink([&](ByteCount, std::span<const std::uint8_t>, bool fin) {
    if (fin) done = true;
  });
  const std::vector<std::uint8_t> data(10, 1);
  r.OnStreamFrame(RecvFrame(ByteCount{0}, data));
  r.OnStreamFrame(RecvFrame(ByteCount{10}, {}, /*fin=*/true));
  EXPECT_TRUE(done);
  EXPECT_TRUE(r.finished());
}

// ---------------------------------------------------------------------------
// FlowController

TEST(FlowController, SendAllowanceTracksPeerLimit) {
  FlowController fc(ByteCount{1000});
  EXPECT_EQ(fc.SendAllowance(ByteCount{0}), 1000u);
  EXPECT_EQ(fc.SendAllowance(ByteCount{400}), 600u);
  EXPECT_EQ(fc.SendAllowance(ByteCount{1000}), 0u);
  fc.OnMaxData(ByteCount{1500});
  EXPECT_EQ(fc.SendAllowance(ByteCount{1000}), 500u);
  fc.OnMaxData(ByteCount{1200});  // regression must be ignored (monotonic)
  EXPECT_EQ(fc.SendAllowance(ByteCount{1000}), 500u);
}

TEST(FlowController, WindowUpdateAfterHalfWindowConsumed) {
  FlowController fc(ByteCount{1000});
  EXPECT_FALSE(fc.OnBytesConsumed(ByteCount{400}));
  EXPECT_TRUE(fc.OnBytesConsumed(ByteCount{200}));  // 600 consumed >= half of 1000
  EXPECT_EQ(fc.NextAdvertisement(), 1600u);
  EXPECT_FALSE(fc.OnBytesConsumed(ByteCount{100}));
}

TEST(FlowController, ReceiveLimitEnforced) {
  FlowController fc(ByteCount{1000});
  EXPECT_TRUE(fc.WithinReceiveLimit(ByteCount{1000}));
  EXPECT_FALSE(fc.WithinReceiveLimit(ByteCount{1001}));
}

// ---------------------------------------------------------------------------
// Path loss detection

std::unique_ptr<Path> MakePath(PathId id = PathId{0}) {
  return std::make_unique<Path>(id, sim::Address{1, 0}, sim::Address{2, 0},
                                std::make_unique<cc::NewReno>());
}

/// Track packet `pn` as sent at `t`: 1000 bytes carrying one STREAM frame.
void TrackSent(Path& path, PacketNumber pn, TimePoint t) {
  path.OnPacketSent(pn, t, ByteCount{1000})
      .push_back(StreamFrame{StreamId{3}, ByteCount{(pn.value() - 1) * 1000},
                             ByteCount{100}, false});
}

AckFrame AckUpTo(PacketNumber largest, PathId path = PathId{0}) {
  AckFrame ack;
  ack.path_id = path;
  ack.ranges = {{PacketNumber{1}, largest}};
  return ack;
}

TEST(PathLoss, AckRemovesPacketsAndSamplesRtt) {
  auto path = MakePath();
  for (PacketNumber pn = PacketNumber{1}; pn <= 3; ++pn) {
    path->AllocatePacketNumber();
    TrackSent(*path, pn, 1000 * static_cast<TimePoint>(pn));
  }
  auto result = path->OnAckReceived(AckUpTo(PacketNumber{3}), /*now=*/50000);
  EXPECT_EQ(result.newly_acked.size(), 3u);
  EXPECT_TRUE(result.lost.empty());
  EXPECT_TRUE(result.was_new_largest);
  EXPECT_TRUE(path->rtt().has_sample());
  EXPECT_EQ(path->rtt().latest(), 50000 - 3000);
  EXPECT_FALSE(path->HasInFlight());
}

TEST(PathLoss, ReorderingThresholdDeclaresLoss) {
  auto path = MakePath();
  for (PacketNumber pn = PacketNumber{1}; pn <= 5; ++pn) {
    path->AllocatePacketNumber();
    TrackSent(*path, pn, 100);
  }
  // Ack only packet 5: packets 1 and 2 are >= 3 below the largest.
  AckFrame ack;
  ack.ranges = {{PacketNumber{5}, PacketNumber{5}}};
  auto result = path->OnAckReceived(ack, 10000);
  ASSERT_EQ(result.lost.size(), 2u);
  EXPECT_EQ(result.lost[0].pn, 1u);
  EXPECT_EQ(result.lost[1].pn, 2u);
  // 3 and 4 are below threshold: a loss-time deadline must be armed.
  EXPECT_NE(path->NextLossTime(), kTimeInfinite);
}

TEST(PathLoss, TimeThresholdFiresViaDetect) {
  auto path = MakePath();
  for (PacketNumber pn = PacketNumber{1}; pn <= 2; ++pn) {
    path->AllocatePacketNumber();
    TrackSent(*path, pn, 0);
  }
  AckFrame ack;
  ack.ranges = {{PacketNumber{2}, PacketNumber{2}}};
  auto result = path->OnAckReceived(ack, 100 * kMillisecond);
  EXPECT_TRUE(result.lost.empty());  // pn 1 is only 1 below largest
  const TimePoint loss_time = path->NextLossTime();
  ASSERT_NE(loss_time, kTimeInfinite);
  auto lost = path->DetectTimeThresholdLosses(loss_time);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].pn, 1u);
}

TEST(PathLoss, RtoReturnsAllInFlightAndMarksPotentiallyFailed) {
  auto path = MakePath();
  for (PacketNumber pn = PacketNumber{1}; pn <= 4; ++pn) {
    path->AllocatePacketNumber();
    TrackSent(*path, pn, 1000);
  }
  EXPECT_FALSE(path->potentially_failed());
  auto lost = path->OnRetransmissionTimeout(500 * kMillisecond);
  EXPECT_EQ(lost.size(), 4u);
  EXPECT_FALSE(path->HasInFlight());
  EXPECT_TRUE(path->potentially_failed());  // no ack since last send
  EXPECT_EQ(path->rto_count(), 1);
  EXPECT_FALSE(path->Usable());
}

TEST(PathLoss, AckOnPathClearsPotentiallyFailed) {
  auto path = MakePath();
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{1}, 1000);
  path->OnRetransmissionTimeout(500 * kMillisecond);
  EXPECT_TRUE(path->potentially_failed());
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{2}, 600 * kMillisecond);
  AckFrame ack;
  ack.ranges = {{PacketNumber{2}, PacketNumber{2}}};
  path->OnAckReceived(ack, 700 * kMillisecond);
  EXPECT_FALSE(path->potentially_failed());
  EXPECT_EQ(path->rto_count(), 0);  // backoff reset
}

// A send clocked out by an ACK happens at the ACK's simulated instant. If
// the path dies right after it, the RTO must still see "no ACK since our
// last transmission": equal timestamps do not mean the ACK came later.
TEST(PathLoss, RtoAfterSameInstantAckClockedSendMarksPotentiallyFailed) {
  auto path = MakePath();
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{1}, 1000);
  path->OnAckReceived(AckUpTo(PacketNumber{1}), 50 * kMillisecond);
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{2}, 50 * kMillisecond);
  path->OnRetransmissionTimeout(500 * kMillisecond);
  EXPECT_TRUE(path->potentially_failed());
}

// The mirror order: an ACK that acknowledges data after the send, at the
// same instant, is activity since that send.
TEST(PathLoss, RtoAfterSameInstantAckOfLastSendKeepsPathUsable) {
  auto path = MakePath();
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{1}, 1000);
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{2}, 50 * kMillisecond);
  path->OnAckReceived(AckUpTo(PacketNumber{1}), 50 * kMillisecond);
  path->OnRetransmissionTimeout(500 * kMillisecond);
  EXPECT_FALSE(path->potentially_failed());
}

TEST(PathLoss, RtoBackoffDoubles) {
  auto path = MakePath();
  path->rtt().AddSample(100 * kMillisecond, 0);
  const Duration base = path->CurrentRto();
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{1}, 0);
  path->OnRetransmissionTimeout(base);
  EXPECT_EQ(path->CurrentRto(), 2 * base);
  path->AllocatePacketNumber();
  TrackSent(*path, PacketNumber{2}, base + 1);
  path->OnRetransmissionTimeout(3 * base);
  EXPECT_EQ(path->CurrentRto(), 4 * base);
}

// ---------------------------------------------------------------------------
// Schedulers

struct SchedulerFixture {
  std::unique_ptr<Path> a = MakePath(PathId{0});
  std::unique_ptr<Path> b = MakePath(PathId{1});
  std::vector<Path*> paths{a.get(), b.get()};
};

TEST(SchedulerTest, LowestRttPrefersFasterPath) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(100 * kMillisecond, 0);
  fx.b->rtt().AddSample(20 * kMillisecond, 0);
  LowestRttScheduler sched;
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.b.get());
}

TEST(SchedulerTest, UnmeasuredPathNotChosenWhenMeasuredAvailable) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(100 * kMillisecond, 0);
  LowestRttScheduler sched;
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.a.get());
  // ... but it IS a duplication target (§3 duplicate-while-unknown).
  const auto targets = sched.DuplicationTargets(fx.paths, fx.a.get(), ByteCount{1000});
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], fx.b.get());
}

TEST(SchedulerTest, InitialPathChosenWhenNothingMeasured) {
  SchedulerFixture fx;
  LowestRttScheduler sched;
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.a.get());
}

TEST(SchedulerTest, CongestionWindowGatesSelection) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(10 * kMillisecond, 0);
  fx.b->rtt().AddSample(50 * kMillisecond, 0);
  // Fill path a's window.
  const ByteCount wa = fx.a->congestion().congestion_window();
  fx.a->congestion().OnPacketSent(0, wa);
  LowestRttScheduler sched;
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.b.get());
  // Fill b too: nothing can send.
  const ByteCount wb = fx.b->congestion().congestion_window();
  fx.b->congestion().OnPacketSent(0, wb);
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), nullptr);
}

TEST(SchedulerTest, PotentiallyFailedPathAvoided) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(10 * kMillisecond, 0);
  fx.b->rtt().AddSample(50 * kMillisecond, 0);
  fx.a->set_potentially_failed(true);
  LowestRttScheduler sched;
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.b.get());
}

TEST(SchedulerTest, AllFailedFallsBackRatherThanDeadlocking) {
  SchedulerFixture fx;
  fx.a->set_potentially_failed(true);
  fx.b->set_potentially_failed(true);
  LowestRttScheduler sched;
  EXPECT_NE(sched.SelectPath(fx.paths, ByteCount{1000}), nullptr);
}

TEST(SchedulerTest, RemoteReportedFailureAvoided) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(10 * kMillisecond, 0);
  fx.b->rtt().AddSample(50 * kMillisecond, 0);
  fx.a->set_remote_reported_failed(true);  // PATHS frame said path 0 died
  LowestRttScheduler sched;
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.b.get());
}

TEST(SchedulerTest, RoundRobinAlternates) {
  SchedulerFixture fx;
  RoundRobinScheduler sched;
  Path* first = sched.SelectPath(fx.paths, ByteCount{1000});
  Path* second = sched.SelectPath(fx.paths, ByteCount{1000});
  Path* third = sched.SelectPath(fx.paths, ByteCount{1000});
  EXPECT_NE(first, second);
  EXPECT_EQ(first, third);
}

TEST(SchedulerTest, RedundantDuplicatesEverywhere) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(10 * kMillisecond, 0);
  fx.b->rtt().AddSample(50 * kMillisecond, 0);
  RedundantScheduler sched;
  Path* chosen = sched.SelectPath(fx.paths, ByteCount{1000});
  EXPECT_EQ(chosen, fx.a.get());
  const auto targets = sched.DuplicationTargets(fx.paths, chosen, ByteCount{1000});
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], fx.b.get());
}

TEST(SchedulerTest, PingFirstProbesUnmeasuredPaths) {
  SchedulerFixture fx;
  fx.a->rtt().AddSample(10 * kMillisecond, 0);
  PingFirstScheduler sched;
  EXPECT_TRUE(sched.WantsProbe(*fx.b));
  EXPECT_FALSE(sched.WantsProbe(*fx.a));
  // Unmeasured path never selected while a measured one exists.
  EXPECT_EQ(sched.SelectPath(fx.paths, ByteCount{1000}), fx.a.get());
  EXPECT_TRUE(sched.DuplicationTargets(fx.paths, fx.a.get(), ByteCount{1000}).empty());
}

}  // namespace
}  // namespace mpq::quic
