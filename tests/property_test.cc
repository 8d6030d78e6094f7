// Cross-cutting property sweeps (parameterised gtest): for every protocol
// and a grid of transfer sizes, loss rates and path asymmetries, a
// transfer must complete, deliver exactly the requested bytes, and pass
// the payload-pattern integrity check. These are the repository's
// "nothing is silently corrupted anywhere in the design space" net.
//
// The packet-number containers (the receive-side ACK range tracker and
// the sent-packet ring) are also checked here against std::map reference
// models under random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "cc/newreno.h"
#include "common/rng.h"
#include "harness/runner.h"
#include "quic/ack_tracker.h"
#include "quic/endpoint.h"
#include "quic/path.h"

namespace mpq::harness {
namespace {

std::array<sim::PathParams, 2> Paths(double cap0, double cap1, double rtt0_ms,
                                     double rtt1_ms, double queue_ms,
                                     double loss) {
  std::array<sim::PathParams, 2> paths;
  paths[0].capacity_mbps = cap0;
  paths[1].capacity_mbps = cap1;
  paths[0].rtt = MillisToDuration(rtt0_ms);
  paths[1].rtt = MillisToDuration(rtt1_ms);
  for (auto& p : paths) {
    p.max_queue_delay = MillisToDuration(queue_ms);
    p.random_loss_rate = loss;
  }
  return paths;
}

// ---------------------------------------------------------------------------
// Size sweep: every protocol moves every size intact.

using SizeCase = std::tuple<Protocol, ByteCount>;

class SizeSweep : public ::testing::TestWithParam<SizeCase> {};

TEST_P(SizeSweep, CompletesIntact) {
  const auto [protocol, size] = GetParam();
  TransferOptions options;
  options.transfer_size = size;
  options.seed = 21 + size.value() % 1009;
  const TransferResult result =
      RunTransfer(protocol, Paths(10, 4, 30, 80, 60, 0), options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.bytes_received, size);
  EXPECT_EQ(result.data_integrity_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SizeSweep,
    ::testing::Combine(::testing::Values(Protocol::kTcp, Protocol::kQuic,
                                         Protocol::kMptcp, Protocol::kMpquic),
                       ::testing::Values(ByteCount{1}, ByteCount{999},
                                         ByteCount{64} * 1024,
                                         ByteCount{1} * 1024 * 1024)),
    [](const auto& info) {
      return ToString(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param).value()) + "B";
    });

// ---------------------------------------------------------------------------
// Loss sweep: integrity under random loss on both paths, all protocols.

using LossCase = std::tuple<Protocol, int>;  // loss in tenths of a percent

class LossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossSweep, CompletesIntact) {
  const auto [protocol, loss_tenths] = GetParam();
  TransferOptions options;
  options.transfer_size = ByteCount{256 * 1024};
  options.seed = 31 + loss_tenths;
  const TransferResult result = RunTransfer(
      protocol, Paths(8, 3, 20, 100, 60, loss_tenths / 1000.0), options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.bytes_received, 256u * 1024);
  EXPECT_EQ(result.data_integrity_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LossSweep,
    ::testing::Combine(::testing::Values(Protocol::kTcp, Protocol::kQuic,
                                         Protocol::kMptcp, Protocol::kMpquic),
                       ::testing::Values(0, 5, 25)),
    [](const auto& info) {
      return ToString(std::get<0>(info.param)) + "_loss" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Asymmetry sweep: extreme path heterogeneity must not corrupt or stall
// the multipath protocols.

struct AsymmetryCase {
  const char* name;
  double cap0, cap1;
  double rtt0_ms, rtt1_ms;
  double queue_ms;
};

// Without this gtest prints the raw bytes of the case, including the
// address of `name`, which changes with every run under ASLR and so gives
// the discovered ctest names a different suffix each build.
void PrintTo(const AsymmetryCase& c, std::ostream* os) { *os << c.name; }

class AsymmetrySweep : public ::testing::TestWithParam<AsymmetryCase> {};

TEST_P(AsymmetrySweep, MultipathProtocolsSurvive) {
  const AsymmetryCase& c = GetParam();
  for (Protocol protocol : {Protocol::kMptcp, Protocol::kMpquic}) {
    TransferOptions options;
    options.transfer_size = ByteCount{512 * 1024};
    options.seed = 41;
    options.time_limit = 1200 * kSecond;
    const TransferResult result = RunTransfer(
        protocol, Paths(c.cap0, c.cap1, c.rtt0_ms, c.rtt1_ms, c.queue_ms, 0),
        options);
    ASSERT_TRUE(result.completed) << c.name << " " << ToString(protocol);
    EXPECT_EQ(result.data_integrity_errors, 0u)
        << c.name << " " << ToString(protocol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AsymmetrySweep,
    ::testing::Values(
        AsymmetryCase{"capacity_100x", 50, 0.5, 30, 30, 60},
        AsymmetryCase{"rtt_100x", 10, 10, 4, 400, 60},
        AsymmetryCase{"both_asymmetric", 40, 0.4, 5, 350, 60},
        AsymmetryCase{"tiny_buffers", 10, 10, 30, 30, 1},
        AsymmetryCase{"deep_buffers", 5, 5, 30, 30, 1500}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Initial-path invariance: for multipath protocols, the initial path must
// not change total delivered bytes or corrupt data (only timing).

class InitialPathSweep : public ::testing::TestWithParam<Protocol> {};

TEST_P(InitialPathSweep, BothOrientationsComplete) {
  for (int initial = 0; initial < 2; ++initial) {
    TransferOptions options;
    options.transfer_size = ByteCount{512 * 1024};
    options.initial_path = initial;
    options.seed = 51;
    const TransferResult result =
        RunTransfer(GetParam(), Paths(20, 2, 10, 150, 60, 0), options);
    ASSERT_TRUE(result.completed) << "initial " << initial;
    EXPECT_EQ(result.bytes_received, 512u * 1024);
    EXPECT_EQ(result.data_integrity_errors, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, InitialPathSweep,
                         ::testing::Values(Protocol::kMptcp,
                                           Protocol::kMpquic),
                         [](const auto& info) {
                           return ToString(info.param);
                         });


// ---------------------------------------------------------------------------
// Reordering sweep: heavy link jitter reorders packets in flight. Loss
// detectors (QUIC packet threshold, TCP dupacks) may fire spuriously —
// costing time, never correctness.

class ReorderSweep : public ::testing::TestWithParam<Protocol> {};

TEST_P(ReorderSweep, JitteredLinksNeverCorrupt) {
  std::array<sim::PathParams, 2> paths;
  for (auto& p : paths) {
    p.capacity_mbps = 10;
    p.rtt = 30 * kMillisecond;
    p.max_queue_delay = 60 * kMillisecond;
    p.jitter = 10 * kMillisecond;  // >> serialization gap: reorders
  }
  TransferOptions options;
  options.transfer_size = ByteCount{512 * 1024};
  options.seed = 61;
  const TransferResult result = RunTransfer(GetParam(), paths, options);
  ASSERT_TRUE(result.completed) << ToString(GetParam());
  EXPECT_EQ(result.bytes_received, 512u * 1024);
  EXPECT_EQ(result.data_integrity_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReorderSweep,
                         ::testing::Values(Protocol::kTcp, Protocol::kQuic,
                                           Protocol::kMptcp,
                                           Protocol::kMpquic),
                         [](const auto& info) {
                           return ToString(info.param);
                         });


// ---------------------------------------------------------------------------
// Hostile input: garbage datagrams injected at both endpoints during a
// transfer must be rejected (bad AEAD tag / malformed header) without
// crashing or corrupting the stream.

TEST(Robustness, GarbageDatagramFloodDuringQuicTransfer) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(77));
  std::array<sim::PathParams, 2> path_params;
  for (auto& p : path_params) {
    p.capacity_mbps = 10;
    p.rtt = 30 * kMillisecond;
    p.max_queue_delay = 60 * kMillisecond;
  }
  auto topo = sim::BuildTwoPathTopology(net, path_params);

  quic::ConnectionConfig config;
  config.multipath = true;
  config.congestion = cc::Algorithm::kOlia;
  quic::ServerEndpoint server(sim, net,
                              {topo.server_addr[0], topo.server_addr[1]},
                              config, 1);
  server.SetAcceptHandler([](quic::Connection& conn) {
    auto request = std::make_shared<std::string>();
    conn.SetStreamDataHandler(
        [&conn, request](StreamId id, ByteCount,
                         std::span<const std::uint8_t> data, bool fin) {
          request->append(data.begin(), data.end());
          if (fin) {
            conn.SendOnStream(id, std::make_unique<PatternSource>(
                                      id, ByteCount{std::stoull(request->substr(4))}));
          }
        });
  });
  quic::ClientEndpoint client(sim, net,
                              {topo.client_addr[0], topo.client_addr[1]},
                              config, 2);
  ByteCount received{};
  std::uint64_t errors = 0;
  bool finished = false;
  client.connection().SetStreamDataHandler(
      [&](StreamId id, ByteCount offset, std::span<const std::uint8_t> data,
          bool fin) {
        errors += CountPatternMismatches(id.value(), offset, data);
        received += data.size();
        if (fin) finished = true;
      });
  client.connection().SetEstablishedHandler([&] {
    const std::string request = "GET 1048576";
    client.connection().SendOnStream(
        StreamId{3}, std::make_unique<BufferSource>(std::vector<std::uint8_t>(
               request.begin(), request.end())));
  });
  client.Connect(topo.server_addr[0]);

  // An on-path attacker blasting random bytes at both ends, every 5 ms.
  // (Injected straight into the delivery path, bypassing the links.)
  std::function<void()> inject;
  Rng attacker(666);
  const ConnectionId victim_cid = client.connection().cid();
  inject = [&sim, &net, &attacker, &inject, victim_cid, topo]() mutable {
    if (sim.now() > 10 * kSecond) return;
    std::vector<std::uint8_t> junk(attacker.NextBounded(600) + 20);
    for (auto& b : junk) b = static_cast<std::uint8_t>(attacker.NextU64());
    // Half the time, make it look like the victim connection (valid
    // header, garbage ciphertext) — the AEAD must reject it.
    if (attacker.NextBool(0.5)) {
      junk[0] = 0x02;  // multipath flag, 1-byte PN
      for (int i = 0; i < 8; ++i) {
        junk[1 + i] = static_cast<std::uint8_t>(victim_cid >> (8 * (7 - i)));
      }
    }
    // Deliver as if it arrived on path 0 in each direction.
    sim::Datagram to_server{topo.client_addr[0], topo.server_addr[0], junk};
    sim::Datagram to_client{topo.server_addr[0], topo.client_addr[0], junk};
    net.FindLinkFrom(topo.client_addr[0])->Transmit(std::move(to_server));
    net.FindLinkFrom(topo.server_addr[0])->Transmit(std::move(to_client));
    sim.Schedule(5 * kMillisecond, inject);
  };
  sim.Schedule(10 * kMillisecond, inject);

  while (!finished && sim.RunOne(120 * kSecond)) {
  }
  ASSERT_TRUE(finished);
  EXPECT_EQ(received, 1024u * 1024);
  EXPECT_EQ(errors, 0u);
  // The junk with a valid-looking header reached the AEAD and died there.
  EXPECT_GT(client.connection().stats().packets_decrypt_failed, 0u);
}

// ---------------------------------------------------------------------------
// Packet-number containers against std::map reference models.

/// The coalesced [first, last] range map ReceivedPacketTracker used to
/// keep, as the reference.
class MapTracker {
 public:
  bool OnPacketReceived(PacketNumber pn) {
    if (pn == 0 || pn < floor_ || AlreadyReceived(pn)) return false;
    auto it = ranges_.upper_bound(pn);
    PacketNumber start = pn;
    PacketNumber end = pn;
    if (it != ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->second + 1 == pn) {
        start = prev->first;
        ranges_.erase(prev);
      }
    }
    if (it != ranges_.end() && it->first == pn + 1) {
      end = it->second;
      ranges_.erase(it);
    }
    ranges_.emplace(start, end);
    largest_ = std::max(largest_, pn);
    Prune();
    return true;
  }
  bool AlreadyReceived(PacketNumber pn) const {
    auto it = ranges_.upper_bound(pn);
    if (it == ranges_.begin()) return false;
    --it;
    return pn >= it->first && pn <= it->second;
  }
  std::vector<std::pair<PacketNumber, PacketNumber>> AckRanges() const {
    std::vector<std::pair<PacketNumber, PacketNumber>> out;
    for (auto it = ranges_.rbegin();
         it != ranges_.rend() && out.size() < quic::AckFrame::kMaxAckRanges;
         ++it) {
      out.emplace_back(it->first, it->second);
    }
    return out;
  }
  /// STOP_WAITING: forget the ranges wholly below the floor but the
  /// newest; a floor above largest + 1 is refused.
  bool OnStopWaiting(PacketNumber least_unacked) {
    if (least_unacked > largest_ + 1) return false;
    floor_ = std::max(floor_, least_unacked);
    Prune();
    return true;
  }
  std::size_t size() const { return ranges_.size(); }
  PacketNumber largest() const { return largest_; }

 private:
  /// Drop every range wholly below the floor but the newest.
  void Prune() {
    while (ranges_.size() > 1 && ranges_.begin()->second < floor_) {
      ranges_.erase(ranges_.begin());
    }
  }

  std::map<PacketNumber, PacketNumber> ranges_;
  PacketNumber largest_{};
  PacketNumber floor_{};
};

std::vector<std::pair<PacketNumber, PacketNumber>> Pairs(
    const std::vector<quic::AckFrame::Range>& ranges) {
  std::vector<std::pair<PacketNumber, PacketNumber>> out;
  for (const auto& range : ranges) out.emplace_back(range.smallest, range.largest);
  return out;
}

TEST(PacketNumberContainers, AckTrackerMatchesMapModel) {
  // Random arrival orders: local reordering, losses (gaps), duplicates,
  // the invalid packet number 0, and loss patterns dense enough to push
  // past the 256-range ACK truncation.
  Rng rng(20261018);
  std::size_t max_ranges = 0;
  for (int round = 0; round < 40; ++round) {
    quic::ReceivedPacketTracker tracker;
    MapTracker reference;
    const std::uint64_t n = 200 + rng.NextBounded(2000);
    const double drop = (round % 4 == 0) ? 0.5 : 0.02 * double(round % 7);
    const std::uint64_t window = 1 + rng.NextBounded(40);
    std::vector<PacketNumber> arrivals;
    for (std::uint64_t pn = 1; pn <= n; ++pn) {
      if (!rng.NextBool(drop)) arrivals.push_back(PacketNumber{pn});
    }
    for (std::size_t i = 0; i + 1 < arrivals.size(); ++i) {
      const std::size_t j = i + rng.NextBounded(
          std::min<std::uint64_t>(window, arrivals.size() - i));
      std::swap(arrivals[i], arrivals[j]);
    }
    std::vector<quic::AckFrame::Range> reused;  // out-param storage
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      PacketNumber pn = arrivals[i];
      if (rng.NextBool(0.05)) pn = arrivals[rng.NextBounded(i + 1)];
      if (rng.NextBool(0.01)) pn = PacketNumber{0};
      ASSERT_EQ(tracker.OnPacketReceived(pn, static_cast<TimePoint>(i)),
                reference.OnPacketReceived(pn))
          << "round " << round << " pn " << pn.value();
      ASSERT_EQ(tracker.largest_received(), reference.largest());
      const PacketNumber probe{rng.NextBounded(n + 2)};
      ASSERT_EQ(tracker.AlreadyReceived(probe),
                reference.AlreadyReceived(probe));
      if (i % 97 == 0 || i + 1 == arrivals.size()) {
        tracker.BuildAckRanges(reused);
        ASSERT_EQ(Pairs(reused), reference.AckRanges()) << "round " << round;
        ASSERT_EQ(Pairs(tracker.BuildAckRanges()), reference.AckRanges());
        max_ranges = std::max(max_ranges, reference.size());
      }
    }
  }
  EXPECT_GT(max_ranges, quic::AckFrame::kMaxAckRanges);  // truncation ran
}

TEST(PacketNumberContainers, AckTrackerStopWaitingMatchesMapModel) {
  // As above, with STOP_WAITING floors in between: honest ones (at most
  // largest + 1) and forged ones above that. A floor must leave every
  // range reaching it untouched, keep the newest range, and make packets
  // below it duplicates.
  Rng rng(20261019);
  std::size_t floors_applied = 0;
  std::size_t floors_refused = 0;
  for (int round = 0; round < 40; ++round) {
    quic::ReceivedPacketTracker tracker;
    MapTracker reference;
    const std::uint64_t n = 200 + rng.NextBounded(2000);
    const double drop = 0.02 * double(round % 9);
    const std::uint64_t window = 1 + rng.NextBounded(40);
    std::vector<PacketNumber> arrivals;
    for (std::uint64_t pn = 1; pn <= n; ++pn) {
      if (!rng.NextBool(drop)) arrivals.push_back(PacketNumber{pn});
    }
    for (std::size_t i = 0; i + 1 < arrivals.size(); ++i) {
      const std::size_t j = i + rng.NextBounded(
          std::min<std::uint64_t>(window, arrivals.size() - i));
      std::swap(arrivals[i], arrivals[j]);
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      PacketNumber pn = arrivals[i];
      if (rng.NextBool(0.05)) pn = arrivals[rng.NextBounded(i + 1)];
      ASSERT_EQ(tracker.OnPacketReceived(pn, static_cast<TimePoint>(i)),
                reference.OnPacketReceived(pn))
          << "round " << round << " pn " << pn.value();
      ASSERT_EQ(tracker.largest_received(), reference.largest());
      if (i % 97 == 0) {
        ASSERT_EQ(Pairs(tracker.BuildAckRanges()), reference.AckRanges());
      }
      if (!rng.NextBool(0.03)) continue;

      const PacketNumber largest = tracker.largest_received();
      const PacketNumber floor{
          rng.NextBounded(largest.value() + 3) + 1};  // up to largest + 3
      const auto before = Pairs(tracker.BuildAckRanges());
      const bool applied = tracker.OnStopWaiting(floor);
      ASSERT_EQ(applied, reference.OnStopWaiting(floor));
      ASSERT_EQ(applied, floor <= largest + 1);
      const auto after = Pairs(tracker.BuildAckRanges());
      ASSERT_EQ(after, reference.AckRanges()) << "round " << round;
      if (!applied) {
        ++floors_refused;
        ASSERT_EQ(after, before);
        continue;
      }
      ++floors_applied;
      ASSERT_FALSE(after.empty());
      ASSERT_EQ(after.front(), before.front());  // the newest range stays
      std::vector<std::pair<PacketNumber, PacketNumber>> reaching;
      for (const auto& range : before) {
        if (range.second >= tracker.floor()) reaching.push_back(range);
      }
      if (reaching.empty()) reaching.push_back(before.front());
      ASSERT_EQ(after, reaching);
      if (tracker.floor() > 1) {
        const PacketNumber below{rng.NextBounded(tracker.floor().value() - 1) +
                                 1};
        ASSERT_FALSE(tracker.OnPacketReceived(below, 0));
        ASSERT_FALSE(reference.OnPacketReceived(below));
      }
    }
  }
  EXPECT_GT(floors_applied, 100u);
  EXPECT_GT(floors_refused, 0u);
}

/// The ordered map Path used to track sent packets in, with the loss
/// detection it ran over it, as the reference.
struct MapSentModel {
  struct Record {
    TimePoint sent_time = 0;
    bool ping = false;
  };
  std::map<PacketNumber, Record> sent;
  PacketNumber largest_acked{};
  TimePoint loss_time = kTimeInfinite;

  /// Loss pass below largest_acked (the packet threshold only on ACKs).
  void DetectLosses(TimePoint now, Duration threshold, bool packet_threshold,
                    std::vector<PacketNumber>& lost) {
    loss_time = kTimeInfinite;
    for (auto it = sent.begin();
         it != sent.end() && it->first < largest_acked;) {
      if ((packet_threshold && largest_acked - it->first >= 3) ||
          it->second.sent_time + threshold <= now) {
        lost.push_back(it->first);
        it = sent.erase(it);
        continue;
      }
      loss_time = std::min(loss_time, it->second.sent_time + threshold);
      ++it;
    }
  }
};

/// Path's time threshold, from its RTT estimator.
Duration TimeThreshold(const quic::Path& path) {
  const Duration base = std::max(path.rtt().smoothed(), path.rtt().latest());
  return std::max<Duration>(base * 9 / 8, 1 * kMillisecond);
}

/// The STREAM offset that identifies packet `pn`'s first frame.
ByteCount OffsetOf(PacketNumber pn) { return ByteCount{pn.value() * 1000}; }

std::vector<PacketNumber> Pns(const std::vector<quic::SentPacket>& packets) {
  std::vector<PacketNumber> out;
  for (const auto& packet : packets) out.push_back(packet.pn);
  return out;
}

TEST(PacketNumberContainers, SentPacketRingMatchesMapModel) {
  // Random sends (with ack-only packet numbers leaving holes), bursts that
  // grow the ring, ACKs with random descending ranges that acknowledge
  // newer packets before older ones, time-threshold loss timers, RTOs and
  // migrations, over enough packets for the ring to wrap many times.
  Rng rng(7771);
  for (int round = 0; round < 12; ++round) {
    quic::Path path(PathId{1}, sim::Address{1, 0}, sim::Address{2, 0},
                    std::make_unique<cc::NewReno>());
    MapSentModel reference;
    TimePoint now = 1000;
    for (int op = 0; op < 4000; ++op) {
      now += static_cast<Duration>(rng.NextBounded(3 * kMillisecond));
      const std::uint64_t dice = rng.NextBounded(100);
      if (dice < 55) {
        const int burst = rng.NextBool(0.02) ? 300 : 1;
        for (int i = 0; i < burst; ++i) {
          const PacketNumber pn = path.AllocatePacketNumber();
          if (rng.NextBool(0.3)) continue;  // ack-only: never tracked
          const bool ping = rng.NextBool(0.1);
          std::vector<quic::Frame>& frames =
              path.OnPacketSent(pn, now, ByteCount{1200});
          ASSERT_TRUE(frames.empty());
          frames.push_back(
              quic::StreamFrame{StreamId{3}, OffsetOf(pn), ByteCount{100},
                                false});
          if (ping) frames.push_back(quic::PingFrame{});
          reference.sent[pn] = {now, ping};
        }
      } else if (dice < 92 && path.largest_sent() >= 1) {
        // Descending, non-adjacent ranges over a random subset of the
        // last few hundred packet numbers (sometimes everything).
        quic::AckFrame ack;
        const std::uint64_t top = path.largest_sent().value();
        const std::uint64_t low =
            rng.NextBool(0.05) ? 1 : top - std::min<std::uint64_t>(top - 1, 300);
        const double density = 0.2 + 0.7 * double(rng.NextBounded(100)) / 100;
        for (std::uint64_t pn = top; pn >= low; --pn) {
          if (!rng.NextBool(density)) continue;
          if (!ack.ranges.empty() &&
              ack.ranges.back().smallest == PacketNumber{pn + 1}) {
            ack.ranges.back().smallest = PacketNumber{pn};
          } else if (ack.ranges.size() < quic::AckFrame::kMaxAckRanges) {
            ack.ranges.push_back({PacketNumber{pn}, PacketNumber{pn}});
          } else {
            break;
          }
        }
        if (ack.ranges.empty()) continue;
        const quic::Path::AckResult& result = path.OnAckReceived(ack, now);

        std::vector<PacketNumber> acked;
        bool acked_ping = false;
        for (const auto& range : ack.ranges) {
          for (auto it = reference.sent.lower_bound(range.smallest);
               it != reference.sent.end() && it->first <= range.largest;) {
            acked.push_back(it->first);
            acked_ping = acked_ping || it->second.ping;
            it = reference.sent.erase(it);
          }
        }
        reference.largest_acked =
            std::max(reference.largest_acked, ack.LargestAcked());
        std::vector<PacketNumber> lost;
        reference.DetectLosses(now, TimeThreshold(path), true, lost);

        std::vector<PacketNumber> got_acked;
        for (const auto& packet : result.newly_acked) {
          got_acked.push_back(packet.pn);
        }
        ASSERT_EQ(got_acked, acked) << "round " << round << " op " << op;
        ASSERT_EQ(result.acked_ping, acked_ping);
        ASSERT_EQ(Pns(result.lost), lost);
        for (const auto& packet : result.lost) {
          ASSERT_FALSE(packet.frames.empty());
          const auto* stream = std::get_if<quic::StreamFrame>(&packet.frames[0]);
          ASSERT_NE(stream, nullptr);
          ASSERT_EQ(stream->offset, OffsetOf(packet.pn));
        }
      } else if (dice < 96) {
        std::vector<PacketNumber> lost;
        reference.DetectLosses(now, TimeThreshold(path), false, lost);
        ASSERT_EQ(Pns(path.DetectTimeThresholdLosses(now)), lost);
      } else {
        std::vector<PacketNumber> all;
        for (const auto& [pn, record] : reference.sent) all.push_back(pn);
        reference.sent.clear();
        reference.loss_time = kTimeInfinite;
        const std::vector<quic::SentPacket>& lost =
            dice < 99 ? path.OnRetransmissionTimeout(now)
                      : path.Migrate(sim::Address{1, 1}, sim::Address{2, 1},
                                     std::make_unique<cc::NewReno>(), now);
        ASSERT_EQ(Pns(lost), all);
      }
      ASSERT_EQ(path.NextLossTime(), reference.loss_time) << "op " << op;
      ASSERT_EQ(path.HasInFlight(), !reference.sent.empty());
      ASSERT_EQ(path.OldestInFlightSentTime(),
                reference.sent.empty()
                    ? kTimeInfinite
                    : reference.sent.begin()->second.sent_time);
      ASSERT_EQ(path.congestion().bytes_in_flight(),
                ByteCount{1200 * reference.sent.size()});
    }
  }
}

}  // namespace
}  // namespace mpq::harness
