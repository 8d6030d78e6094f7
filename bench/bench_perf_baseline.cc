// Performance snapshot for the zero-allocation datapath + parallel
// harness work: micro costs of the per-packet hot paths (wire assembly,
// AEAD seal/open), whole-engine simulation throughput, and the WSP sweep
// wall clock at --jobs 1 vs --jobs N. Emits one JSON document (stdout,
// or --out FILE) with the pre-change numbers embedded for comparison;
// the committed BENCH_PR2.json is this program's output. Regenerate with
//   ./build/bench/bench_perf_baseline --out BENCH_PR2.json
// (see docs/PERFORMANCE.md; absolute numbers are machine-dependent).
//
//   --prof   additionally run one profiled engine transfer (MPQ_PROF
//            scopes enabled) and embed the subsystem time breakdown +
//            span dump under "prof" — the committed BENCH_PR6.json is
//            the --prof output; render it with tools/mpq_prof
//   --quick  skip the WSP sweep legs (the ci.sh perf gate only needs
//            the engine number)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_simd.h"
#include "common/source.h"
#include "crypto/aead.h"
#include "harness/figures.h"
#include "harness/parallel.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "quic/endpoint.h"
#include "quic/wire.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace {

using namespace mpq;
using Clock = std::chrono::steady_clock;

// Baseline captured on this benchmark's first version, built at the
// commit preceding the datapath overhaul (same machine class as the
// "after" numbers committed alongside; 1 core, so no sweep speedup).
constexpr double kBaselineWireNs = 60.3;
constexpr double kBaselineSealNs = 4435.4;
constexpr double kBaselineOpenNs = 4369.0;
constexpr double kBaselineEngineWallS = 0.111;
constexpr double kBaselineEnginePacketsPerSec = 86030.0;
constexpr double kBaselineSweepSerialWallS = 1.116;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double WirePacketAssembleNs() {
  const std::vector<std::uint8_t> payload(1300, 0xAB);
  quic::StreamFrame frame;
  frame.stream_id = StreamId{3};
  frame.offset = ByteCount{1 << 20};
  frame.length = ByteCount{payload.size()};
  frame.data = payload;
  const quic::Frame f{frame};
  quic::PacketHeader header;
  header.cid = 0x1234567890ABCDEFULL;
  header.path_id = PathId{1};
  header.packet_number = PacketNumber{100000};
  header.multipath = true;
  constexpr std::size_t kIters = 200000;
  std::vector<double> runs;
  for (int run = 0; run < 5; ++run) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      BufWriter w(1350);
      EncodeHeader(header, PacketNumber{99990}, w);
      EncodeFrame(f, w);
      if (w.size() < 1300) std::abort();
    }
    runs.push_back(Seconds(t0, Clock::now()) * 1e9 / kIters);
  }
  return Median(std::move(runs));
}

struct AeadCost {
  double seal_ns = 0;
  double open_ns = 0;
};

AeadCost AeadMtuCost() {
  crypto::ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7);
  }
  crypto::PacketProtection protection(key);
  const std::vector<std::uint8_t> plaintext(1300, 0x42);
  const std::uint8_t aad[14] = {};
  constexpr std::size_t kIters = 100000;
  AeadCost cost;
  {
    std::vector<double> runs;
    for (int run = 0; run < 5; ++run) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kIters; ++i) {
        const auto sealed = protection.Seal(PathId{1}, PacketNumber{i + 1}, aad, plaintext);
        if (sealed.size() != 1300 + crypto::kAeadTagSize) std::abort();
      }
      runs.push_back(Seconds(t0, Clock::now()) * 1e9 / kIters);
    }
    cost.seal_ns = Median(std::move(runs));
  }
  {
    auto sealed = protection.Seal(PathId{1}, PacketNumber{99}, aad, plaintext);
    std::vector<std::uint8_t> scratch;
    std::vector<double> runs;
    for (int run = 0; run < 5; ++run) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kIters; ++i) {
        if (!protection.Open(PathId{1}, PacketNumber{99}, aad, sealed, scratch)) std::abort();
      }
      runs.push_back(Seconds(t0, Clock::now()) * 1e9 / kIters);
    }
    cost.open_ns = Median(std::move(runs));
  }
  return cost;
}

struct EngineThroughput {
  double wall_s = 0;        // median across reps
  double total_wall_s = 0;  // sum across reps (profiler spans accumulate)
  std::uint64_t packets = 0;
};

/// One full 8 MB MPQUIC transfer over two 20 Mbps paths: exercises the
/// whole datapath (scheduler, CC, crypto, wire, reassembly) and reports
/// client packets processed per wall-clock second.
EngineThroughput EngineTransfer(int reps = 5) {
  constexpr ByteCount kSize{8 * 1024 * 1024};
  EngineThroughput out;
  std::vector<double> walls;
  for (int run = 0; run < reps; ++run) {
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
    server.SetAcceptHandler([](quic::Connection& conn) {
      auto request = std::make_shared<std::string>();
      conn.SetStreamDataHandler(
          [&conn, request](StreamId id, ByteCount,
                           std::span<const std::uint8_t> data, bool fin) {
            request->append(data.begin(), data.end());
            if (fin && id == 3) {
              const ByteCount size = ByteCount{std::stoull(request->substr(4))};
              conn.SendOnStream(StreamId{3}, std::make_unique<PatternSource>(3, size));
            }
          });
    });
    std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                            topo.client_addr.end());
    quic::ClientEndpoint client(sim, net, client_locals, config, 8);
    ByteCount received{};
    bool finished = false;
    client.connection().SetStreamDataHandler(
        [&](StreamId, ByteCount, std::span<const std::uint8_t> data,
            bool fin) {
          received += data.size();
          if (fin) finished = true;
        });
    client.connection().SetEstablishedHandler([&] {
      const std::string request = "GET " + std::to_string(kSize.value());
      client.connection().SendOnStream(
          StreamId{3}, std::make_unique<BufferSource>(std::vector<std::uint8_t>(
                 request.begin(), request.end())));
    });
    const auto t0 = Clock::now();
    client.Connect(topo.server_addr[0]);
    while (!finished && sim.RunOne(600 * kSecond)) {
    }
    walls.push_back(Seconds(t0, Clock::now()));
    if (!finished || received != kSize) std::abort();
    out.packets = client.connection().stats().packets_sent +
                  client.connection().stats().packets_received;
  }
  for (const double w : walls) out.total_wall_s += w;
  out.wall_s = Median(std::move(walls));
  return out;
}

/// Reduced WSP sweep (6 scenarios x 2 paths x 4 protocols x 2 reps).
double SweepWallSeconds(int jobs) {
  harness::ClassEvalOptions options;
  options.scenario_count = 6;
  options.repetitions = 2;
  options.transfer_size = ByteCount{1024 * 1024};
  options.progress = false;
  options.time_limit = 4000 * kSecond;
  options.base_options.time_limit = options.time_limit;
  options.jobs = jobs;
  std::vector<double> runs;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = Clock::now();
    const auto outcomes = harness::EvaluateClass(
        expdesign::ScenarioClass::kLowBdpNoLoss, options);
    runs.push_back(Seconds(t0, Clock::now()));
    if (outcomes.size() != options.scenario_count) std::abort();
  }
  return Median(std::move(runs));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool prof = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prof") == 0) {
      prof = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  const double wire_ns = WirePacketAssembleNs();
  const AeadCost aead = AeadMtuCost();
  const EngineThroughput engine = EngineTransfer();
  const int jobs = harness::DefaultJobs();
  const double sweep_serial_s = quick ? 0.0 : SweepWallSeconds(1);
  const double sweep_parallel_s =
      quick ? 0.0
            : (jobs > 1 ? SweepWallSeconds(jobs) : sweep_serial_s);
  const double engine_pps =
      static_cast<double>(engine.packets) / engine.wall_s;

  // Profiled leg: a separate single engine transfer with the scopes
  // recording, so the "current" engine numbers above stay comparable
  // across PRs (profiling off) while the dump and the measured overhead
  // land under "prof".
  EngineThroughput profiled;
  std::vector<obs::prof::SpanStats> spans;
  if (prof) {
    if (!obs::prof::kCompiledIn) {
      std::fprintf(stderr,
                   "--prof requires a build with -DMPQ_PROF=ON\n");
      return 2;
    }
    obs::prof::Reset();
    obs::prof::SetEnabled(true);
    profiled = EngineTransfer(/*reps=*/3);
    obs::prof::SetEnabled(false);
    spans = obs::prof::Snapshot();
  }

  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("hardware_threads")
      .UInt(std::max(1u, std::thread::hardware_concurrency()));
  writer.Key("baseline");
  writer.BeginObject();
  writer.Key("wire_packet_assemble_ns").Double(kBaselineWireNs);
  writer.Key("aead_seal_ns").Double(kBaselineSealNs);
  writer.Key("aead_open_ns").Double(kBaselineOpenNs);
  writer.Key("engine_wall_s").Double(kBaselineEngineWallS);
  writer.Key("engine_packets_per_sec").Double(kBaselineEnginePacketsPerSec);
  writer.Key("sweep_serial_wall_s").Double(kBaselineSweepSerialWallS);
  writer.EndObject();
  writer.Key("current");
  writer.BeginObject();
  writer.Key("wire_packet_assemble_ns").Double(wire_ns);
  writer.Key("aead_seal_ns").Double(aead.seal_ns);
  writer.Key("aead_open_ns").Double(aead.open_ns);
  writer.Key("engine_wall_s").Double(engine.wall_s);
  writer.Key("engine_packets").UInt(engine.packets);
  writer.Key("engine_packets_per_sec").Double(engine_pps);
  writer.Key("sweep_serial_wall_s").Double(sweep_serial_s);
  writer.Key("sweep_jobs").UInt(static_cast<std::uint64_t>(jobs));
  writer.Key("sweep_parallel_wall_s").Double(sweep_parallel_s);
  writer.EndObject();
  bench::WriteSimdBlock(writer);
  writer.Key("engine_speedup_vs_baseline")
      .Double(engine_pps / kBaselineEnginePacketsPerSec);
  writer.Key("sweep_parallel_speedup")
      .Double(sweep_parallel_s > 0 ? sweep_serial_s / sweep_parallel_s
                                   : 0.0);
  if (quick) writer.Key("quick").Bool(true);
  if (prof) {
    // Spans accumulate across every profiled rep, so share-of-wall math
    // uses the summed wall; overhead compares the medians.
    const double wall_ns = profiled.total_wall_s * 1e9;
    std::uint64_t total_self = 0;
    std::map<std::string, std::uint64_t> by_subsystem;
    for (const auto& span : spans) {
      total_self += span.self_ns;
      by_subsystem[span.leaf.substr(0, span.leaf.find(';'))] +=
          span.self_ns;
    }
    writer.Key("prof");
    writer.BeginObject();
    writer.Key("engine_wall_ns").Double(wall_ns);
    writer.Key("engine_wall_s").Double(profiled.wall_s);
    writer.Key("engine_packets").UInt(profiled.packets);
    writer.Key("overhead_pct")
        .Double(100.0 * (profiled.wall_s - engine.wall_s) / engine.wall_s);
    // Share of the profiled run's wall time attributed to each
    // subsystem (self time of its scopes); the sum is "coverage" — the
    // fraction of engine wall the profiler can account for.
    writer.Key("coverage")
        .Double(static_cast<double>(total_self) / wall_ns);
    writer.Key("subsystems");
    writer.BeginObject();
    for (const auto& [name, self_ns] : by_subsystem) {
      writer.Key(name).Double(static_cast<double>(self_ns) / wall_ns);
    }
    writer.EndObject();
    writer.Key("spans");
    obs::prof::WriteSpans(writer);
    writer.EndObject();
  }
  writer.EndObject();

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << writer.str() << '\n';
  }
  std::printf("%s\n", writer.str().c_str());
  return 0;
}
