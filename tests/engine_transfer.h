// The runs pinned by both the behaviour gate (golden_test.cc) and the
// allocation gate (alloc_budget_test.cc): the 8 MB two-path engine
// transfer (the historical engine leg and perfbench's bulk_mp reference,
// seeds 12345/7/8), the lossy transfer's paths and the 1000-connection
// multipath fleet.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/source.h"
#include "harness/workload.h"
#include "quic/endpoint.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace mpq::golden {

inline constexpr ByteCount kSize{8 * 1024 * 1024};
inline constexpr StreamId kStream{3};

struct EngineTransfer {
  bool finished = false;
  ByteCount received{};
  std::uint64_t client_packets = 0;  // sent + received
  std::uint64_t events = 0;
  TimePoint fct = 0;
  std::uint64_t client_digest = 0;
  std::uint64_t server_digest = 0;
};

/// Calls around the timed region, from Connect to the fin byte.
struct TimedRegion {
  void (*begin)() = nullptr;
  void (*end)() = nullptr;
};

/// One 8 MB download over two 20 Mbps paths (20 and 40 ms RTT), wired
/// through the public endpoints exactly as the engine leg runs it.
/// `client_tracer`, if given, observes the client connection.
inline EngineTransfer RunEngineTransfer(
    TimedRegion timed = {}, quic::ConnectionTracer* client_tracer = nullptr) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(12345));
  std::array<sim::PathParams, 2> params;
  params[0].capacity_mbps = 20;
  params[1].capacity_mbps = 20;
  params[0].rtt = 20 * kMillisecond;
  params[1].rtt = 40 * kMillisecond;
  for (auto& p : params) p.max_queue_delay = 60 * kMillisecond;
  auto topo = sim::BuildTwoPathTopology(net, params);

  quic::ConnectionConfig config;
  config.multipath = true;
  config.congestion = cc::Algorithm::kOlia;

  std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                          topo.server_addr.end());
  quic::ServerEndpoint server(sim, net, server_locals, config, 7);
  std::string request;
  server.SetAcceptHandler([&request](quic::Connection& conn) {
    conn.SetStreamDataHandler([&conn, &request](
                                  StreamId id, ByteCount,
                                  std::span<const std::uint8_t> data,
                                  bool fin) {
      request.append(data.begin(), data.end());
      if (fin && id == kStream) {
        const ByteCount size{std::stoull(request.substr(4))};
        conn.SendOnStream(kStream,
                          std::make_unique<PatternSource>(kStream, size));
      }
    });
  });
  std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                          topo.client_addr.end());
  quic::ClientEndpoint client(sim, net, client_locals, config, 8);
  if (client_tracer != nullptr) client.connection().SetTracer(client_tracer);
  EngineTransfer out;
  client.connection().SetStreamDataHandler(
      [&](StreamId, ByteCount, std::span<const std::uint8_t> data, bool fin) {
        out.received += data.size();
        if (fin) {
          out.finished = true;
          out.fct = sim.now();
        }
      });
  client.connection().SetEstablishedHandler([&] {
    const std::string get = "GET " + std::to_string(kSize.value());
    client.connection().SendOnStream(
        kStream, std::make_unique<BufferSource>(
                     std::vector<std::uint8_t>(get.begin(), get.end())));
  });
  if (timed.begin != nullptr) timed.begin();
  client.Connect(topo.server_addr[0]);
  while (!out.finished && sim.RunOne(600 * kSecond)) {
  }
  if (timed.end != nullptr) timed.end();
  out.client_packets = client.connection().stats().packets_sent +
                       client.connection().stats().packets_received;
  out.events = sim.events_executed();
  out.client_digest = client.connection().StateDigest();
  const std::vector<quic::Connection*> accepted = server.Connections();
  if (accepted.size() == 1) out.server_digest = accepted[0]->StateDigest();
  return out;
}

/// Two lossy paths (10 Mbps / 30 ms / 2% and 5 Mbps / 60 ms / 3%), so loss
/// detection, RTOs and retransmission run through the send loop.
inline std::array<sim::PathParams, 2> LossyPaths() {
  std::array<sim::PathParams, 2> paths;
  paths[0].capacity_mbps = 10;
  paths[0].rtt = 30 * kMillisecond;
  paths[0].random_loss_rate = 0.02;
  paths[1].capacity_mbps = 5;
  paths[1].rtt = 60 * kMillisecond;
  paths[1].random_loss_rate = 0.03;
  return paths;
}

/// The 1000-connection multipath fleet (bench_many_conn --smoke 1000
/// --multipath --seed 1): 8 shards, one job, so the shards run inline.
inline harness::WorkloadOptions Fleet1000Options() {
  harness::WorkloadOptions options;
  options.connections = 1000;
  options.multipath = true;
  options.shards = 8;
  options.jobs = 1;
  options.seed = 1;
  return options;
}

}  // namespace mpq::golden
