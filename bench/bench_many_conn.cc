// Many-connection server-engine sweep.
//
// Sweeps the arrival-process workload (harness/workload.h) over
// connections x {single-path QUIC, 2-path MPQUIC}: each cell runs a
// fleet of Poisson-arriving bounded-Pareto flows against the sharded
// quic::Server and reports aggregate goodput, p50/p99/p999 FCT, the
// Jain fairness index, and engine throughput (simulator events per
// wall-clock second). A determinism cell re-runs the 1000-connection
// fleet at --jobs 1 and --jobs N and asserts byte-identical KPIs.
//
// Host-time comparisons across commits are perfbench's job
// (perfbench/README.md); the wall_s/events_per_sec fields here are for
// reading the sweep's shape on one machine.
//
//   --out FILE   also write the JSON document to FILE
//   --quick      cap the sweep at 100 connections (CI-sized)
//   --jobs N     worker threads for the workload shards (0 = auto)
//   --smoke N    run ONE N-connection cell and print only its
//                deterministic KPIs (no wall-clock fields) — the ci.sh
//                scale stage diffs this output across --jobs values
//   --multipath  (smoke mode) use 2-path MPQUIC for the smoke cell
//   --seed S     (smoke mode) workload master seed
//   --metrics F  (smoke mode) also write per-flow NDJSON rows to F,
//                readable with `mpq_trace --aggregate F`
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel.h"
#include "harness/workload.h"
#include "obs/json.h"

namespace {

using namespace mpq;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
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
  bool quick = false;
  bool multipath = false;
  int jobs = 0;
  std::uint64_t seed = 1;
  std::uint32_t smoke = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
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

  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("hardware_threads")
      .UInt(std::max(1u, std::thread::hardware_concurrency()));

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
  writer.EndObject();

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << writer.str() << '\n';
  }
  std::printf("%s\n", writer.str().c_str());
  return 0;
}
