// Unit tests for the TCP baseline's building blocks: segment wire format,
// RTT estimation with Karn filtering, and subflow handshake/loss recovery
// driven through a loopback harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cc/newreno.h"
#include "tcpsim/segment.h"
#include "tcpsim/subflow.h"

namespace mpq::tcp {
namespace {

TEST(Segment, RoundTripPlain) {
  TcpSegment s;
  s.cid = 0xABCDEF;
  s.subflow = 1;
  s.flags = kFlagAck;
  s.seq = 1000;
  s.ack = 2000;
  s.window = 16 * 1024 * 1024;
  s.data_ack = 555;
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  s.payload = payload;
  BufWriter w;
  EncodeSegment(s, w);
  EXPECT_EQ(w.size(), SegmentHeaderSize(s) + payload.size());
  BufReader r(w.span());
  TcpSegment out;
  ASSERT_TRUE(DecodeSegment(r, out));
  EXPECT_EQ(out.cid, s.cid);
  EXPECT_EQ(out.subflow, 1);
  EXPECT_EQ(out.seq, 1000u);
  EXPECT_EQ(out.ack, 2000u);
  EXPECT_EQ(out.window, s.window);
  EXPECT_EQ(out.data_ack, 555u);
  EXPECT_TRUE(std::ranges::equal(out.payload, payload));
  EXPECT_FALSE(out.dss.has_value());
}

TEST(Segment, RoundTripWithSackAndDss) {
  TcpSegment s;
  s.flags = kFlagAck | kFlagDataFin;
  s.sacks = {{100, 200}, {300, 350}, {500, 501}};
  s.dss = DssMapping{987654321};
  const std::vector<std::uint8_t> payload(1400, 7);
  s.payload = payload;
  BufWriter w;
  EncodeSegment(s, w);
  EXPECT_EQ(w.size(), SegmentHeaderSize(s) + payload.size());
  BufReader r(w.span());
  TcpSegment out;
  ASSERT_TRUE(DecodeSegment(r, out));
  ASSERT_EQ(out.sacks.size(), 3u);
  EXPECT_EQ(out.sacks[1].start, 300u);
  EXPECT_EQ(out.sacks[1].end, 350u);
  ASSERT_TRUE(out.dss.has_value());
  EXPECT_EQ(out.dss->dsn, 987654321u);
  EXPECT_TRUE(out.has(kFlagDataFin));
  EXPECT_TRUE(std::ranges::equal(out.payload, payload));
}

TEST(Segment, TruncatedInputRejected) {
  TcpSegment s;
  const std::vector<std::uint8_t> payload(100, 1);
  s.payload = payload;
  BufWriter w;
  EncodeSegment(s, w);
  for (std::size_t cut : {std::size_t{1}, std::size_t{10}, std::size_t{25},
                          w.size() - 1}) {
    BufReader r(w.span().subspan(0, cut));
    TcpSegment out;
    EXPECT_FALSE(DecodeSegment(r, out)) << "cut at " << cut;
  }
}

TEST(Segment, WireSizeRealistic) {
  // A bare data segment should cost roughly a TCP header (20 B) plus a
  // little; with SACK+DSS options it grows accordingly.
  TcpSegment s;
  s.window = 16 * 1024 * 1024;
  const std::size_t base = SegmentHeaderSize(s);
  EXPECT_GE(base, 20u);
  EXPECT_LE(base, 32u);
}

TEST(TcpRtt, Rfc6298Smoothing) {
  TcpRttEstimator rtt;
  EXPECT_EQ(rtt.Rto(), 1 * kSecond);  // initial RTO
  rtt.AddSample(100 * kMillisecond);
  EXPECT_EQ(rtt.smoothed(), 100 * kMillisecond);
  for (int i = 0; i < 50; ++i) rtt.AddSample(100 * kMillisecond);
  EXPECT_GE(rtt.Rto(), TcpRttEstimator::kMinRto);
}

// ---------------------------------------------------------------------------
// Subflow harness: two subflows wired back-to-back through simulator
// events with a configurable one-way delay and a drop filter. Segments
// cross as encoded bytes, as they do between endpoints.

class LoopbackHost : public SubflowHost {
 public:
  explicit LoopbackHost(sim::Simulator& sim) : sim_(sim) {}

  // Wiring.
  Subflow* peer = nullptr;
  Duration one_way_delay = 5 * kMillisecond;
  /// Sees each segment as the peer would decode it; true = drop.
  std::function<bool(const TcpSegment&)> drop_filter;

  // Observations.
  std::vector<std::uint8_t> stream_data;  // the "connection stream" we own
  std::vector<std::uint8_t> received;
  bool established = false;
  bool got_data_fin = false;
  int can_send_events = 0;
  int timeout_events = 0;
  std::vector<DsnRange> last_outstanding;

  void OnSubflowEstablished(Subflow&) override { established = true; }
  void OnSubflowDataDelivered(Subflow&, std::uint64_t dsn,
                              std::span<const std::uint8_t> data,
                              bool data_fin) override {
    if (received.size() < dsn + data.size()) {
      received.resize(dsn + data.size());
    }
    std::copy(data.begin(), data.end(), received.begin() + dsn);
    if (data_fin) got_data_fin = true;
  }
  void OnPeerWindow(std::uint64_t, std::uint64_t) override {}
  void OnSubflowCanSend() override { ++can_send_events; }
  void OnSubflowTimeout(Subflow&, std::vector<DsnRange> out) override {
    ++timeout_events;
    last_outstanding = std::move(out);
  }
  std::uint64_t AdvertisedWindow() override { return 16 * 1024 * 1024; }
  std::uint64_t ConnectionDataAck() override { return 0; }
  void EmitSegment(Subflow&, const TcpSegment& segment, std::uint64_t dsn,
                   std::size_t payload_size) override {
    BufWriter wire;
    EncodeSegmentHeader(segment, payload_size, wire);
    const auto payload = wire.AppendSpan(payload_size);
    std::copy_n(stream_data.begin() + static_cast<std::ptrdiff_t>(dsn),
                payload_size, payload.begin());
    if (drop_filter) {
      BufReader reader(wire.span());
      TcpSegment sent;
      EXPECT_TRUE(DecodeSegment(reader, sent));
      if (drop_filter(sent)) return;
    }
    sim_.Schedule(one_way_delay, [this, bytes = wire.Take()] {
      BufReader reader(bytes);
      TcpSegment arrived;
      if (peer != nullptr && DecodeSegment(reader, arrived)) {
        peer->OnSegment(arrived);
      }
    });
  }

 private:
  sim::Simulator& sim_;
};

struct SubflowPair {
  sim::Simulator sim;
  LoopbackHost client_host{sim};
  LoopbackHost server_host{sim};
  std::unique_ptr<Subflow> client;
  std::unique_ptr<Subflow> server;

  SubflowPair() {
    SubflowConfig config;
    client = std::make_unique<Subflow>(
        sim, client_host, 0, 42, sim::Address{1, 0}, sim::Address{2, 0},
        std::make_unique<cc::NewReno>(config.mss), config);
    server = std::make_unique<Subflow>(
        sim, server_host, 0, 42, sim::Address{2, 0}, sim::Address{1, 0},
        std::make_unique<cc::NewReno>(config.mss), config);
    client_host.peer = server.get();
    server_host.peer = client.get();
    server->Listen();
  }
};

TEST(SubflowHandshake, ThreeWayCompletesAndSamplesRtt) {
  SubflowPair pair;
  pair.client->ConnectActive(false);
  pair.sim.Run();
  EXPECT_TRUE(pair.client->established());
  EXPECT_TRUE(pair.server->established());
  EXPECT_TRUE(pair.client_host.established);
  EXPECT_TRUE(pair.server_host.established);
  // Client samples RTT from SYN -> SYN/ACK: 10 ms.
  ASSERT_TRUE(pair.client->rtt().has_sample());
  EXPECT_EQ(pair.client->rtt().smoothed(), 10 * kMillisecond);
}

TEST(SubflowHandshake, LostSynIsRetransmitted) {
  SubflowPair pair;
  int dropped = 0;
  pair.client_host.drop_filter = [&](const TcpSegment& s) {
    if (s.has(kFlagSyn) && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  };
  pair.client->ConnectActive(false);
  pair.sim.Run();
  EXPECT_TRUE(pair.client->established());
  EXPECT_EQ(dropped, 1);
  // RTT must NOT have been sampled from the retransmitted SYN (Karn).
  EXPECT_FALSE(pair.client->rtt().has_sample());
}

TEST(SubflowData, BytesFlowAndDataFinDelivered) {
  SubflowPair pair;
  pair.client->ConnectActive(false);
  pair.sim.Run();
  pair.client_host.stream_data.resize(5000);
  for (std::size_t i = 0; i < 5000; ++i) {
    pair.client_host.stream_data[i] = static_cast<std::uint8_t>(i);
  }
  pair.client->SendMappedData(0, ByteCount{1400}, false);
  pair.client->SendMappedData(1400, ByteCount{1400}, false);
  pair.client->SendMappedData(2800, ByteCount{1400}, false);
  pair.client->SendMappedData(4200, ByteCount{800}, true);
  pair.sim.Run();
  ASSERT_EQ(pair.server_host.received.size(), 5000u);
  EXPECT_EQ(pair.server_host.received, pair.client_host.stream_data);
  EXPECT_TRUE(pair.server_host.got_data_fin);
}

TEST(SubflowData, LostSegmentRecoveredByFastRetransmit) {
  SubflowPair pair;
  pair.client->ConnectActive(false);
  pair.sim.Run();
  pair.client_host.stream_data.assign(14000, 9);
  // Drop the second data segment once (seq 1401 given SYN at 0).
  bool dropped = false;
  pair.client_host.drop_filter = [&](const TcpSegment& s) {
    if (!dropped && !s.payload.empty() && s.seq == 1401) {
      dropped = true;
      return true;
    }
    return false;
  };
  for (int i = 0; i < 10; ++i) {
    pair.client->SendMappedData(i * 1400, ByteCount{1400}, i == 9);
  }
  pair.sim.Run();
  EXPECT_TRUE(dropped);
  EXPECT_EQ(pair.server_host.received.size(), 14000u);
  EXPECT_TRUE(pair.server_host.got_data_fin);
  EXPECT_GE(pair.client->segments_retransmitted(), 1u);
  // Fast retransmit, not RTO: the whole exchange stays under a second.
  EXPECT_LT(pair.sim.now(), 300 * kMillisecond);
  EXPECT_EQ(pair.client->rto_count(), 0u);
}

TEST(SubflowData, TotalLossLeadsToRtoAndPotentiallyFailed) {
  SubflowPair pair;
  pair.client->ConnectActive(false);
  pair.sim.Run();
  EXPECT_TRUE(pair.client->established());
  // Everything from the client is now dropped.
  pair.client_host.drop_filter = [](const TcpSegment&) { return true; };
  pair.client_host.stream_data.assign(2800, 5);
  pair.client->SendMappedData(0, ByteCount{1400}, false);
  pair.client->SendMappedData(1400, ByteCount{1400}, false);
  pair.sim.Run(10 * kSecond);
  EXPECT_GE(pair.client_host.timeout_events, 1);
  EXPECT_TRUE(pair.client->potentially_failed());
  EXPECT_FALSE(pair.client->Usable());
  // The outstanding DSN ranges were reported for reinjection.
  ASSERT_FALSE(pair.client_host.last_outstanding.empty());
  EXPECT_EQ(pair.client_host.last_outstanding[0].start, 0u);
}

TEST(SubflowData, SackLimitedToThreeBlocks) {
  SubflowPair pair;
  pair.client->ConnectActive(false);
  pair.sim.Run();
  pair.client_host.stream_data.assign(20 * 1400, 3);
  // Drop every other segment to create many holes at the receiver.
  pair.client_host.drop_filter = [&](const TcpSegment& s) {
    if (s.payload.empty()) return false;
    const std::uint64_t index = (s.seq - 1) / 1400;
    return index % 2 == 0 && s.seq < 14000;  // first transmission only
  };
  std::size_t max_blocks = 0;
  pair.server_host.drop_filter = [&](const TcpSegment& s) {
    max_blocks = std::max(max_blocks, s.sacks.size());
    return false;
  };
  for (int i = 0; i < 12; ++i) {
    pair.client->SendMappedData(i * 1400ULL, ByteCount{1400}, false);
  }
  pair.sim.Run(1 * kSecond);
  // The receiver generated SACK-bearing acks, capped at 3 blocks even
  // though there were ~6 holes.
  EXPECT_GE(max_blocks, 2u);
  EXPECT_LE(max_blocks, 3u);
}

}  // namespace
}  // namespace mpq::tcp
