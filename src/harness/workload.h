// Arrival-process workload over the sharded many-connection server
// engine (quic/server.h).
//
// Model: flows arrive by a Poisson process (exponential interarrivals)
// with bounded-Pareto flow sizes — the standard heavy-tailed traffic
// model behind FCT evaluations. Every flow is one MPQUIC connection:
// the client connects, sends "GET <size>", and the server streams the
// response back over the shard's shared bottleneck link(s).
//
// Execution: flows are partitioned over `shards` completely independent
// simulations by quic::ShardOf of the flow's (precomputed) CID. Each
// shard owns its own Simulator, Network, Server and clients; shards fan
// out across `jobs` threads via harness::RunParallel and reduce in
// shard order, so every KPI — and every byte of the metrics/qlog output
// — is identical for any job count. The shard count (not the job
// count) is the partition, so it is a workload parameter: changing it
// changes the topology, changing jobs changes nothing.
//
// KPIs: per-flow completion time and goodput; fleet-wide aggregate
// goodput, p50/p99/p999 FCT (obs::Histogram, merged across shards with
// MetricsRegistry::MergeFrom) and the Jain fairness index over per-flow
// goodputs. Exported as a merged MetricsRegistry snapshot, optional
// per-flow NDJSON rows (`metrics_path`, read by `mpq_trace
// --aggregate`) and an optional qlog-style flow-event trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cc/congestion.h"
#include "common/types.h"
#include "quic/config.h"

namespace mpq::harness {

struct WorkloadOptions {
  /// Total flows (connections) across all shards.
  std::uint32_t connections = 100;
  /// Poisson arrival rate, flows per second.
  double arrival_rate_per_s = 200.0;
  /// Bounded-Pareto flow-size distribution P(X > x) ~ x^-alpha on
  /// [min_flow_bytes, max_flow_bytes].
  double pareto_alpha = 1.3;
  ByteCount min_flow_bytes{4 * 1024};
  ByteCount max_flow_bytes{256 * 1024};
  /// Master seed: arrivals, sizes and per-connection seeds all derive
  /// from it.
  std::uint64_t seed = 1;
  /// Independent simulation shards (the deterministic partition).
  std::uint32_t shards = 8;
  /// Worker threads (0 = auto). Output is byte-identical for any value.
  int jobs = 1;
  /// Single-path QUIC vs two-path MPQUIC.
  bool multipath = false;
  cc::Algorithm multipath_congestion = cc::Algorithm::kOlia;
  /// Per-client access (uplink) capacity.
  double access_capacity_mbps = 100.0;
  /// Capacity of each shared server downlink — the bottleneck all of a
  /// shard's responses contend on (one such link per path).
  double bottleneck_capacity_mbps = 20.0;
  /// Base RTT of path 0 / path 1 (single-path uses only path 0).
  Duration path_rtt[2] = {30 * kMillisecond, 50 * kMillisecond};
  Duration max_queue_delay = 50 * kMillisecond;
  /// Give up on unfinished flows at this simulated time.
  TimePoint time_limit = 600 * kSecond;
  /// Sweep period for destroying finished connections (memory bound at
  /// 10k-connection scale).
  Duration reap_interval = 1 * kSecond;
  /// Optional outputs.
  std::string metrics_path;   ///< per-flow NDJSON rows + fleet rollup row
  std::string metrics_label;  ///< label stamped on every row
  std::string qlog_path;      ///< flow arrival/complete event trace
};

/// One planned flow (pre-drawn, before any simulation runs).
struct FlowSpec {
  std::uint32_t index = 0;     ///< global arrival order
  std::uint64_t seed = 0;      ///< client endpoint seed
  ConnectionId cid = 0;        ///< ClientEndpoint::CidForSeed(seed)
  std::uint32_t shard = 0;     ///< quic::ShardOf(cid, shards)
  TimePoint arrival = 0;
  ByteCount size;
};

struct FlowResult {
  std::uint32_t index = 0;
  std::uint32_t shard = 0;
  ConnectionId cid = 0;
  TimePoint arrival = 0;
  ByteCount size;
  bool completed = false;
  Duration fct = 0;            ///< arrival -> last response byte (with fin)
  double goodput_mbps = 0.0;   ///< size * 8 / fct
};

struct WorkloadResult {
  std::vector<FlowResult> flows;  ///< index order
  std::uint32_t completed = 0;
  ByteCount bytes_received;
  /// Aggregate goodput: completed bytes * 8 over the span from first
  /// arrival to last completion.
  double total_goodput_mbps = 0.0;
  /// Jain fairness index over completed flows' goodputs (1 = perfectly
  /// fair; 1/n = one flow got everything).
  double jain_index = 0.0;
  /// FCT percentiles from the merged fleet histogram, microseconds.
  double fct_p50_us = 0.0;
  double fct_p99_us = 0.0;
  double fct_p999_us = 0.0;
  /// Sum of per-shard simulator events (engine work measure).
  std::uint64_t total_events = 0;
  /// Merged fleet MetricsRegistry snapshot (deterministic JSON).
  std::string metrics_json;
};

/// Draw the full arrival plan (deterministic in options.seed; no
/// simulation). Flows are in arrival order; arrivals are nondecreasing.
std::vector<FlowSpec> GenerateFlows(const WorkloadOptions& options);

/// Run the workload to completion (or time_limit).
WorkloadResult RunWorkload(const WorkloadOptions& options);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2); 0 for empty input.
double JainIndex(const std::vector<double>& xs);

}  // namespace mpq::harness
