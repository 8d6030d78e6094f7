// Many-connection server-engine benchmark (BENCH_PR9.json).
//
// Sweeps the arrival-process workload (harness/workload.h) over
// connections x {single-path QUIC, 2-path MPQUIC}: each cell runs a
// fleet of Poisson-arriving bounded-Pareto flows against the sharded
// quic::Server and reports aggregate goodput, p50/p99/p999 FCT, the
// Jain fairness index, and engine throughput (simulator events per
// wall-clock second). A determinism cell re-runs the 1000-connection
// fleet at --jobs 1 and --jobs N and asserts byte-identical KPIs.
//
// The emitted JSON keeps the `current.engine_packets_per_sec` field the
// ci.sh perf-regression gate compares (same single-connection engine
// transfer bench_perf_baseline measures), so committing this file as
// the newest BENCH_PR*.json keeps the gate armed.
//
//   --out FILE   also write the JSON document to FILE
//   --quick      cap the sweep at 100 connections (CI-sized)
//   --prof       embed a profiled engine transfer (needs -DMPQ_PROF=ON)
//   --jobs N     worker threads for the workload shards (0 = auto)
//   --smoke N    run ONE N-connection cell and print only its
//                deterministic KPIs (no wall-clock fields) — the ci.sh
//                scale stage diffs this output across --jobs values
//   --multipath  (smoke mode) use 2-path MPQUIC for the smoke cell
//   --seed S     (smoke mode) workload master seed
//   --metrics F  (smoke mode) also write per-flow NDJSON rows to F,
//                readable with `mpq_trace --aggregate F`
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
#include "harness/parallel.h"
#include "harness/workload.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "quic/endpoint.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace {

using namespace mpq;
using Clock = std::chrono::steady_clock;

// Same reference point bench_perf_baseline embeds (PR-2 capture): the
// gate compares *measured* numbers across BENCH files, this is only
// context for human readers.
constexpr double kBaselineEnginePacketsPerSec = 86030.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct EngineThroughput {
  double wall_s = 0;
  double total_wall_s = 0;
  std::uint64_t packets = 0;
};

/// The ci.sh perf gate's yardstick: one 8 MB MPQUIC transfer over two
/// 20 Mbps paths, identical to bench_perf_baseline's EngineTransfer so
/// `current.engine_packets_per_sec` stays comparable across BENCH files.
EngineThroughput EngineTransfer(int reps) {
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
              conn.SendOnStream(StreamId{3},
                                std::make_unique<PatternSource>(3, size));
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
          StreamId{3},
          std::make_unique<BufferSource>(
              std::vector<std::uint8_t>(request.begin(), request.end())));
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

harness::WorkloadOptions CellOptions(std::uint32_t connections,
                                     bool multipath, int jobs,
                                     std::uint64_t seed) {
  harness::WorkloadOptions options;
  options.connections = connections;
  options.multipath = multipath;
  // The shard count is part of the workload definition (it changes the
  // topology), so it is fixed per cell, never derived from the machine.
  options.shards = connections >= 8 ? 8 : 1;
  options.jobs = jobs;
  options.seed = seed;
  return options;
}

/// Deterministic KPI fields only — byte-identical for any --jobs value.
void WriteCellKpis(obs::JsonWriter& writer,
                   const harness::WorkloadOptions& options,
                   const harness::WorkloadResult& result) {
  writer.Key("connections").UInt(options.connections);
  writer.Key("multipath").Bool(options.multipath);
  writer.Key("shards").UInt(options.shards);
  writer.Key("completed").UInt(result.completed);
  writer.Key("bytes_received").UInt(result.bytes_received.value());
  writer.Key("total_goodput_mbps").Double(result.total_goodput_mbps);
  writer.Key("jain_index").Double(result.jain_index);
  writer.Key("fct_p50_us").Double(result.fct_p50_us);
  writer.Key("fct_p99_us").Double(result.fct_p99_us);
  writer.Key("fct_p999_us").Double(result.fct_p999_us);
  writer.Key("events").UInt(result.total_events);
}

int RunSmoke(std::uint32_t connections, bool multipath, int jobs,
             std::uint64_t seed, const std::string& metrics_path) {
  harness::WorkloadOptions options =
      CellOptions(connections, multipath, jobs, seed);
  if (!metrics_path.empty()) {
    std::remove(metrics_path.c_str());
    options.metrics_path = metrics_path;
    options.metrics_label = "smoke-" + std::to_string(connections) +
                            (multipath ? "-mp" : "-sp");
  }
  const harness::WorkloadResult result = harness::RunWorkload(options);
  obs::JsonWriter writer;
  writer.BeginObject();
  WriteCellKpis(writer, options, result);
  writer.EndObject();
  // metrics_json is already a complete JSON object; splice it in by hand
  // (JsonWriter has no raw-embed call).
  std::printf("{\"kpis\":%s,\"metrics\":%s}\n", writer.str().c_str(),
              result.metrics_json.c_str());
  return result.completed == result.flows.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string metrics_path;
  bool prof = false;
  bool quick = false;
  bool multipath = false;
  int jobs = 0;
  std::uint64_t seed = 1;
  std::uint32_t smoke = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prof") == 0) {
      prof = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--multipath") == 0) {
      multipath = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc) {
      smoke = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke > 0) return RunSmoke(smoke, multipath, jobs, seed, metrics_path);

  const EngineThroughput engine = EngineTransfer(/*reps=*/5);
  const double engine_pps =
      static_cast<double>(engine.packets) / engine.wall_s;

  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("hardware_threads")
      .UInt(std::max(1u, std::thread::hardware_concurrency()));
  writer.Key("baseline");
  writer.BeginObject();
  writer.Key("engine_packets_per_sec").Double(kBaselineEnginePacketsPerSec);
  writer.EndObject();
  writer.Key("current");
  writer.BeginObject();
  writer.Key("engine_wall_s").Double(engine.wall_s);
  writer.Key("engine_packets").UInt(engine.packets);
  writer.Key("engine_packets_per_sec").Double(engine_pps);
  writer.EndObject();
  bench::WriteSimdBlock(writer);

  // The sweep matrix: connections x path count. Each cell is a fresh
  // deterministic fleet; wall_s/events_per_sec are the machine-dependent
  // engine-throughput readings, everything else is seed-determined.
  std::vector<std::uint32_t> fleet_sizes = {1, 10, 100, 1000, 10000};
  if (quick) fleet_sizes = {1, 10, 100};
  writer.Key("many_conn");
  writer.BeginArray();
  for (const std::uint32_t connections : fleet_sizes) {
    for (const bool mp : {false, true}) {
      const harness::WorkloadOptions options =
          CellOptions(connections, mp, jobs, seed);
      const auto t0 = Clock::now();
      const harness::WorkloadResult result = harness::RunWorkload(options);
      const double wall_s = Seconds(t0, Clock::now());
      writer.BeginObject();
      WriteCellKpis(writer, options, result);
      writer.Key("wall_s").Double(wall_s);
      writer.Key("events_per_sec")
          .Double(static_cast<double>(result.total_events) / wall_s);
      writer.EndObject();
      std::fprintf(stderr,
                   "many_conn conns=%u multipath=%d: %u/%zu completed, "
                   "%.2f Mbps, jain %.3f, %.0f events/s\n",
                   connections, mp ? 1 : 0, result.completed,
                   result.flows.size(), result.total_goodput_mbps,
                   result.jain_index,
                   static_cast<double>(result.total_events) / wall_s);
    }
  }
  writer.EndArray();

  // Determinism cell: the acceptance bar — the same fleet at --jobs 1
  // and --jobs N must produce identical KPIs and metrics snapshots.
  {
    const std::uint32_t conns = quick ? 100 : 1000;
    const harness::WorkloadOptions base = CellOptions(conns, true, 1, seed);
    const harness::WorkloadResult serial = harness::RunWorkload(base);
    harness::WorkloadOptions wide = base;
    // At least 4 worker threads even on small machines — a 1-vs-1
    // comparison would prove nothing.
    wide.jobs = std::max(4, harness::DefaultJobs());
    const harness::WorkloadResult parallel = harness::RunWorkload(wide);
    const bool identical =
        serial.metrics_json == parallel.metrics_json &&
        serial.total_events == parallel.total_events &&
        serial.completed == parallel.completed &&
        serial.total_goodput_mbps == parallel.total_goodput_mbps &&
        serial.jain_index == parallel.jain_index;
    writer.Key("determinism");
    writer.BeginObject();
    writer.Key("connections").UInt(conns);
    writer.Key("jobs_compared").UInt(static_cast<std::uint64_t>(wide.jobs));
    writer.Key("identical").Bool(identical);
    writer.EndObject();
    if (!identical) {
      std::fprintf(stderr, "determinism check FAILED: --jobs 1 vs --jobs %d "
                           "KPIs differ\n",
                   wide.jobs);
      return 1;
    }
  }

  if (quick) writer.Key("quick").Bool(true);
  if (prof) {
    if (!obs::prof::kCompiledIn) {
      std::fprintf(stderr, "--prof requires a build with -DMPQ_PROF=ON\n");
      return 2;
    }
    obs::prof::Reset();
    obs::prof::SetEnabled(true);
    const EngineThroughput profiled = EngineTransfer(/*reps=*/3);
    obs::prof::SetEnabled(false);
    const auto spans = obs::prof::Snapshot();
    const double wall_ns = profiled.total_wall_s * 1e9;
    std::uint64_t total_self = 0;
    std::map<std::string, std::uint64_t> by_subsystem;
    for (const auto& span : spans) {
      total_self += span.self_ns;
      by_subsystem[span.leaf.substr(0, span.leaf.find(';'))] += span.self_ns;
    }
    writer.Key("prof");
    writer.BeginObject();
    writer.Key("engine_wall_ns").Double(wall_ns);
    writer.Key("engine_wall_s").Double(profiled.wall_s);
    writer.Key("engine_packets").UInt(profiled.packets);
    writer.Key("overhead_pct")
        .Double(100.0 * (profiled.wall_s - engine.wall_s) / engine.wall_s);
    writer.Key("coverage").Double(static_cast<double>(total_self) / wall_ns);
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
