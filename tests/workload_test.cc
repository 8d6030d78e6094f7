// Tests for the arrival-process workload layer (harness/workload.h):
// deterministic flow plans, bounded-Pareto size bounds, Jain index
// math, end-to-end completion of a small fleet, and the core engine
// guarantee — byte-identical results for any worker-thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/workload.h"
#include "quic/endpoint.h"
#include "quic/server.h"

namespace mpq::harness {
namespace {

WorkloadOptions SmallOptions() {
  WorkloadOptions options;
  options.connections = 24;
  options.arrival_rate_per_s = 400.0;
  options.min_flow_bytes = ByteCount{2 * 1024};
  options.max_flow_bytes = ByteCount{32 * 1024};
  options.shards = 4;
  options.jobs = 1;
  options.seed = 7;
  return options;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(JainIndex, EmptyIsZero) { EXPECT_EQ(JainIndex({}), 0.0); }

TEST(JainIndex, EqualSharesArePerfectlyFair) {
  EXPECT_DOUBLE_EQ(JainIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({3.0}), 1.0);
}

TEST(JainIndex, SingleHogIsOneOverN) {
  EXPECT_DOUBLE_EQ(JainIndex({10.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(GenerateFlows, DeterministicAndWellFormed) {
  const WorkloadOptions options = SmallOptions();
  const auto a = GenerateFlows(options);
  const auto b = GenerateFlows(options);
  ASSERT_EQ(a.size(), options.connections);
  std::set<ConnectionId> cids;
  TimePoint prev = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_GE(a[i].arrival, prev);  // Poisson arrivals are nondecreasing
    prev = a[i].arrival;
    EXPECT_GE(a[i].size, options.min_flow_bytes);
    EXPECT_LE(a[i].size, options.max_flow_bytes);
    EXPECT_EQ(a[i].cid, quic::ClientEndpoint::CidForSeed(a[i].seed));
    EXPECT_EQ(a[i].shard, quic::ShardOf(a[i].cid, options.shards));
    EXPECT_LT(a[i].shard, options.shards);
    cids.insert(a[i].cid);
  }
  EXPECT_EQ(cids.size(), a.size());  // demux requires unique CIDs
}

TEST(GenerateFlows, SeedChangesThePlan) {
  WorkloadOptions options = SmallOptions();
  const auto a = GenerateFlows(options);
  options.seed = 8;
  const auto b = GenerateFlows(options);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival != b[i].arrival || a[i].size != b[i].size;
  }
  EXPECT_TRUE(differs);
}

TEST(RunWorkload, SmallFleetCompletes) {
  const WorkloadOptions options = SmallOptions();
  const WorkloadResult result = RunWorkload(options);
  ASSERT_EQ(result.flows.size(), options.connections);
  EXPECT_EQ(result.completed, options.connections);
  EXPECT_GT(result.bytes_received.value(), 0u);
  EXPECT_GT(result.total_goodput_mbps, 0.0);
  EXPECT_GT(result.jain_index, 0.0);
  EXPECT_LE(result.jain_index, 1.0);
  EXPECT_GT(result.fct_p50_us, 0.0);
  EXPECT_GE(result.fct_p99_us, result.fct_p50_us);
  EXPECT_GE(result.fct_p999_us, result.fct_p99_us);
  EXPECT_GT(result.total_events, 0u);
  for (const FlowResult& flow : result.flows) {
    EXPECT_TRUE(flow.completed) << "flow " << flow.index;
    EXPECT_GT(flow.fct, 0);
    EXPECT_GT(flow.goodput_mbps, 0.0);
  }
}

TEST(RunWorkload, MultipathFleetCompletes) {
  WorkloadOptions options = SmallOptions();
  options.multipath = true;
  const WorkloadResult result = RunWorkload(options);
  EXPECT_EQ(result.completed, options.connections);
  EXPECT_GT(result.total_goodput_mbps, 0.0);
}

TEST(RunWorkload, ByteIdenticalForAnyJobCount) {
  // The determinism contract: shard count is the partition, job count is
  // pure execution detail. KPIs, the merged metrics snapshot, and every
  // byte of the NDJSON outputs must match between --jobs 1 and --jobs 4.
  WorkloadOptions options = SmallOptions();
  options.connections = 32;
  options.shards = 8;

  const std::string dir = ::testing::TempDir();
  options.jobs = 1;
  options.metrics_path = dir + "/workload_j1.ndjson";
  options.metrics_label = "det";
  options.qlog_path = dir + "/workload_j1.qlog";
  std::remove(options.metrics_path.c_str());
  const WorkloadResult r1 = RunWorkload(options);

  options.jobs = 4;
  options.metrics_path = dir + "/workload_j4.ndjson";
  options.qlog_path = dir + "/workload_j4.qlog";
  std::remove(options.metrics_path.c_str());
  const WorkloadResult r4 = RunWorkload(options);

  EXPECT_EQ(r1.metrics_json, r4.metrics_json);
  EXPECT_EQ(r1.completed, r4.completed);
  EXPECT_EQ(r1.bytes_received, r4.bytes_received);
  EXPECT_EQ(r1.total_events, r4.total_events);
  EXPECT_DOUBLE_EQ(r1.total_goodput_mbps, r4.total_goodput_mbps);
  EXPECT_DOUBLE_EQ(r1.jain_index, r4.jain_index);
  EXPECT_DOUBLE_EQ(r1.fct_p50_us, r4.fct_p50_us);
  EXPECT_DOUBLE_EQ(r1.fct_p99_us, r4.fct_p99_us);
  EXPECT_DOUBLE_EQ(r1.fct_p999_us, r4.fct_p999_us);
  ASSERT_EQ(r1.flows.size(), r4.flows.size());
  for (std::size_t i = 0; i < r1.flows.size(); ++i) {
    EXPECT_EQ(r1.flows[i].completed, r4.flows[i].completed);
    EXPECT_EQ(r1.flows[i].fct, r4.flows[i].fct);
    EXPECT_EQ(r1.flows[i].shard, r4.flows[i].shard);
  }
  EXPECT_EQ(Slurp(dir + "/workload_j1.ndjson"), Slurp(dir + "/workload_j4.ndjson"));
  EXPECT_EQ(Slurp(dir + "/workload_j1.qlog"), Slurp(dir + "/workload_j4.qlog"));
  EXPECT_NE(Slurp(dir + "/workload_j1.ndjson"), "");
}

TEST(RunWorkload, ShardStatsDemuxCleanly) {
  // Every flow lands on the shard its CID hashes to, so no shard should
  // ever see a wrong-shard datagram; the merged registry carries the
  // per-flow FCT histogram with one sample per completed flow.
  WorkloadOptions options = SmallOptions();
  const WorkloadResult result = RunWorkload(options);
  EXPECT_NE(result.metrics_json.find("\"workload.fct_us\""), std::string::npos);
  EXPECT_NE(result.metrics_json.find("\"workload.flows_completed\":24"),
            std::string::npos);
}

}  // namespace
}  // namespace mpq::harness
