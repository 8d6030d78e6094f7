// Cross-cutting property sweeps (parameterised gtest): for every protocol
// and a grid of transfer sizes, loss rates and path asymmetries, a
// transfer must complete, deliver exactly the requested bytes, and pass
// the payload-pattern integrity check. These are the repository's
// "nothing is silently corrupted anywhere in the design space" net.
#include <gtest/gtest.h>

#include <tuple>

#include "harness/runner.h"
#include "quic/endpoint.h"

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
        for (std::size_t i = 0; i < data.size(); ++i) {
          if (data[i] != PatternByte(id.value(), offset + i)) ++errors;
        }
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

}  // namespace
}  // namespace mpq::harness
