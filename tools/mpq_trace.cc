// mpq_trace: summarize an NDJSON trace written by obs::QlogTracer.
//
//   mpq_trace TRACE.qlog        per-path and per-event summary tables
//   mpq_trace --json TRACE.qlog same summary as one JSON object (for CI
//                               and scripts — no screen-scraping)
//   mpq_trace --aggregate METRICS.ndjson
//                               summarize a many-connection workload
//                               metrics file (harness/workload.h): one
//                               row per label with fleet goodput, FCT
//                               percentiles, Jain index, and the
//                               per-shard flow distribution; add --json
//                               for machine-readable output
//   mpq_trace --selftest        run a built-in trace through the full
//                               write -> parse -> summarize round trip
//                               (registered as a ctest smoke test)
//
// Per-path rows include cwnd percentiles computed with the same
// mpq::Percentile the figure pipeline uses, so numbers line up with the
// benches.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/json.h"
#include "obs/qlog.h"
#include "obs/trace_reader.h"
#include "quic/wire.h"

namespace {

using namespace mpq;

void PrintSummary(const obs::TraceSummary& summary) {
  std::printf("trace: %s\n",
              summary.title.empty() ? "(untitled)" : summary.title.c_str());
  std::printf("events: %llu (%llu malformed lines), span %.3f s\n",
              static_cast<unsigned long long>(summary.events),
              static_cast<unsigned long long>(summary.malformed),
              DurationToSeconds(summary.last_time - summary.first_time));

  if (!summary.handshake_milestones.empty()) {
    std::printf("\nhandshake:\n");
    for (const auto& [milestone, time] : summary.handshake_milestones) {
      std::printf("  %-16s %9.3f ms\n", milestone.c_str(),
                  static_cast<double>(time) / 1000.0);
    }
  }

  std::printf("\nper path:\n");
  std::printf("  %4s %8s %8s %6s %12s %7s %6s %9s %9s %9s\n", "path",
              "pkts_tx", "pkts_rx", "lost", "bytes_tx", "requeue", "rtos",
              "cwnd_p50", "cwnd_p90", "cwnd_max");
  for (const auto& [path, p] : summary.paths) {
    if (path < 0) continue;  // events without a path field
    std::vector<double> cwnd = p.cwnd_samples;
    const double p50 = cwnd.empty() ? 0.0 : Percentile(cwnd, 50.0);
    const double p90 = cwnd.empty() ? 0.0 : Percentile(cwnd, 90.0);
    const double pmax = cwnd.empty() ? 0.0 : Percentile(cwnd, 100.0);
    std::printf("  %4d %8llu %8llu %6llu %12llu %7llu %6llu %8.1fk %8.1fk "
                "%8.1fk\n",
                path, static_cast<unsigned long long>(p.packets_sent),
                static_cast<unsigned long long>(p.packets_received),
                static_cast<unsigned long long>(p.packets_lost),
                static_cast<unsigned long long>(p.bytes_sent),
                static_cast<unsigned long long>(p.frames_requeued),
                static_cast<unsigned long long>(p.rtos), p50 / 1024.0,
                p90 / 1024.0, pmax / 1024.0);
  }

  bool any_lifecycle = false;
  for (const auto& [path, p] : summary.paths) {
    if (!p.acked_latency_us.empty() || !p.lost_latency_us.empty()) {
      any_lifecycle = true;
    }
  }
  if (any_lifecycle) {
    std::printf("\npacket lifecycle (sent -> acked/lost, simulated us):\n");
    std::printf("  %4s %-6s %8s %9s %9s %9s\n", "path", "stage", "count",
                "p50", "p99", "p999");
    for (const auto& [path, p] : summary.paths) {
      if (path < 0) continue;
      const auto row = [path](const char* stage,
                              const std::vector<double>& samples) {
        if (samples.empty()) return;
        std::printf("  %4d %-6s %8zu %9.1f %9.1f %9.1f\n", path, stage,
                    samples.size(), Percentile(samples, 50.0),
                    Percentile(samples, 99.0), Percentile(samples, 99.9));
      };
      row("acked", p.acked_latency_us);
      row("lost", p.lost_latency_us);
    }
  }

  if (!summary.scheduler_reasons.empty()) {
    std::printf("\nscheduler decisions:\n");
    for (const auto& [reason, count] : summary.scheduler_reasons) {
      std::printf("  %-20s %llu\n", reason.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  if (!summary.frames_sent_by_type.empty()) {
    std::printf("\nframes sent:\n");
    for (const auto& [type, count] : summary.frames_sent_by_type) {
      std::printf("  %-16s %llu\n", type.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  if (!summary.frames_requeued_by_type.empty()) {
    std::printf("\nframes requeued after loss:\n");
    for (const auto& [type, count] : summary.frames_requeued_by_type) {
      std::printf("  %-16s %llu\n", type.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  if (!summary.link_faults.empty()) {
    std::printf("\nlink faults injected:\n");
    for (const auto& [kind, count] : summary.link_faults) {
      std::printf("  %-16s %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  std::printf("\nevents by name:\n");
  for (const auto& [name, count] : summary.events_by_name) {
    std::printf("  %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
}

/// The whole summary as one JSON object, mirroring the tables
/// PrintSummary renders. Percentiles are precomputed (consumers get
/// numbers, not sample vectors).
void WriteSummaryJson(const obs::TraceSummary& summary,
                      obs::JsonWriter& writer) {
  const auto percentiles = [&writer](const char* key,
                                     const std::vector<double>& samples) {
    writer.Key(key).BeginObject();
    writer.Key("count").UInt(samples.size());
    if (!samples.empty()) {
      writer.Key("p50").Double(Percentile(samples, 50.0));
      writer.Key("p90").Double(Percentile(samples, 90.0));
      writer.Key("p99").Double(Percentile(samples, 99.0));
      writer.Key("p999").Double(Percentile(samples, 99.9));
      writer.Key("max").Double(Percentile(samples, 100.0));
    }
    writer.EndObject();
  };
  const auto string_counts =
      [&writer](const char* key,
                const std::map<std::string, std::uint64_t>& counts) {
        writer.Key(key).BeginObject();
        for (const auto& [name, count] : counts) {
          writer.Key(name).UInt(count);
        }
        writer.EndObject();
      };

  writer.BeginObject();
  writer.Key("title").String(summary.title);
  writer.Key("events").UInt(summary.events);
  writer.Key("malformed").UInt(summary.malformed);
  writer.Key("first_time_us").Int(summary.first_time);
  writer.Key("last_time_us").Int(summary.last_time);
  writer.Key("span_s").Double(
      DurationToSeconds(summary.last_time - summary.first_time));
  writer.Key("paths").BeginObject();
  for (const auto& [path, p] : summary.paths) {
    if (path < 0) continue;
    writer.Key(std::to_string(path)).BeginObject();
    writer.Key("packets_sent").UInt(p.packets_sent);
    writer.Key("packets_received").UInt(p.packets_received);
    writer.Key("packets_lost").UInt(p.packets_lost);
    writer.Key("bytes_sent").UInt(p.bytes_sent);
    writer.Key("frames_sent").UInt(p.frames_sent);
    writer.Key("scheduled").UInt(p.scheduled);
    writer.Key("frames_requeued").UInt(p.frames_requeued);
    writer.Key("rtos").UInt(p.rtos);
    percentiles("cwnd", p.cwnd_samples);
    percentiles("srtt_us", p.srtt_samples_us);
    writer.Key("lifecycle").BeginObject();
    percentiles("acked_us", p.acked_latency_us);
    percentiles("lost_us", p.lost_latency_us);
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndObject();
  string_counts("events_by_name", summary.events_by_name);
  string_counts("scheduler_reasons", summary.scheduler_reasons);
  string_counts("frames_sent_by_type", summary.frames_sent_by_type);
  string_counts("frames_requeued_by_type", summary.frames_requeued_by_type);
  string_counts("link_faults", summary.link_faults);
  writer.Key("handshake").BeginObject();
  for (const auto& [milestone, time] : summary.handshake_milestones) {
    writer.Key(milestone).Int(time);
  }
  writer.EndObject();
  writer.EndObject();
}

// -- workload aggregation (--aggregate) -------------------------------------

/// Rollup of one label's flow rows from a workload metrics NDJSON file
/// (harness/workload.h WriteOutputs: per-flow rows carrying conn/shard/
/// size_bytes/completed/fct_us/goodput_mbps, plus an optional "fleet"
/// row which we cross-check but do not depend on).
struct LabelAggregate {
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t bytes = 0;
  TimePoint first_arrival = 0;
  TimePoint last_completion = 0;
  std::vector<double> fct_us;
  std::vector<double> goodputs_mbps;
  std::map<std::int64_t, std::uint64_t> flows_by_shard;
  bool saw_fleet_row = false;
};

struct AggregateSummary {
  std::map<std::string, LabelAggregate> labels;
  std::uint64_t malformed = 0;
  std::uint64_t rows = 0;
};

double Jain(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  return sum_sq == 0.0
             ? 0.0
             : sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

AggregateSummary ReadAggregate(std::istream& in) {
  AggregateSummary summary;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto parsed = obs::JsonValue::Parse(line);
    if (!parsed.has_value()) {
      ++summary.malformed;
      continue;
    }
    const auto* label_v = parsed->Find("label");
    const std::string label =
        label_v != nullptr ? label_v->AsString() : std::string();
    LabelAggregate& agg = summary.labels[label];
    if (parsed->Find("fleet") != nullptr) {
      agg.saw_fleet_row = true;
      ++summary.rows;
      continue;
    }
    const auto* conn = parsed->Find("conn");
    if (conn == nullptr) {
      ++summary.malformed;
      continue;
    }
    ++summary.rows;
    ++agg.flows;
    const auto* shard = parsed->Find("shard");
    if (shard != nullptr) ++agg.flows_by_shard[shard->AsInt()];
    const TimePoint arrival = parsed->Find("arrival_us") != nullptr
                                  ? parsed->Find("arrival_us")->AsInt()
                                  : 0;
    if (agg.flows == 1 || arrival < agg.first_arrival) {
      agg.first_arrival = arrival;
    }
    const auto* completed = parsed->Find("completed");
    if (completed == nullptr || !completed->AsBool()) continue;
    ++agg.completed;
    const auto* size = parsed->Find("size_bytes");
    if (size != nullptr) {
      agg.bytes += static_cast<std::uint64_t>(size->AsInt());
    }
    const auto* fct = parsed->Find("fct_us");
    if (fct != nullptr) {
      agg.fct_us.push_back(fct->AsDouble());
      agg.last_completion =
          std::max(agg.last_completion, arrival + fct->AsInt());
    }
    const auto* goodput = parsed->Find("goodput_mbps");
    if (goodput != nullptr) agg.goodputs_mbps.push_back(goodput->AsDouble());
  }
  return summary;
}

double AggregateGoodputMbps(const LabelAggregate& agg) {
  const Duration span = agg.last_completion - agg.first_arrival;
  return span > 0
             ? static_cast<double>(agg.bytes) * 8.0 / static_cast<double>(span)
             : 0.0;
}

void PrintAggregate(const AggregateSummary& summary) {
  std::printf("workload rows: %llu (%llu malformed lines)\n",
              static_cast<unsigned long long>(summary.rows),
              static_cast<unsigned long long>(summary.malformed));
  std::printf("\n%-24s %8s %9s %12s %9s %6s %9s %9s %9s\n", "label", "flows",
              "completed", "bytes", "goodput", "jain", "fct_p50", "fct_p99",
              "fct_p999");
  for (const auto& [label, agg] : summary.labels) {
    std::vector<double> fct = agg.fct_us;
    const double p50 = fct.empty() ? 0.0 : Percentile(fct, 50.0);
    const double p99 = fct.empty() ? 0.0 : Percentile(fct, 99.0);
    const double p999 = fct.empty() ? 0.0 : Percentile(fct, 99.9);
    std::printf("%-24s %8llu %9llu %12llu %7.2fM %6.3f %8.1fms %8.1fms "
                "%8.1fms\n",
                label.empty() ? "(unlabeled)" : label.c_str(),
                static_cast<unsigned long long>(agg.flows),
                static_cast<unsigned long long>(agg.completed),
                static_cast<unsigned long long>(agg.bytes),
                AggregateGoodputMbps(agg), Jain(agg.goodputs_mbps),
                p50 / 1000.0, p99 / 1000.0, p999 / 1000.0);
  }
  std::printf("\nflows by shard:\n");
  for (const auto& [label, agg] : summary.labels) {
    std::printf("  %-22s", label.empty() ? "(unlabeled)" : label.c_str());
    for (const auto& [shard, count] : agg.flows_by_shard) {
      std::printf(" %lld:%llu", static_cast<long long>(shard),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
}

void WriteAggregateJson(const AggregateSummary& summary,
                        obs::JsonWriter& writer) {
  writer.BeginObject();
  writer.Key("rows").UInt(summary.rows);
  writer.Key("malformed").UInt(summary.malformed);
  writer.Key("labels").BeginObject();
  for (const auto& [label, agg] : summary.labels) {
    writer.Key(label).BeginObject();
    writer.Key("flows").UInt(agg.flows);
    writer.Key("completed").UInt(agg.completed);
    writer.Key("bytes").UInt(agg.bytes);
    writer.Key("goodput_mbps").Double(AggregateGoodputMbps(agg));
    writer.Key("jain_index").Double(Jain(agg.goodputs_mbps));
    std::vector<double> fct = agg.fct_us;
    writer.Key("fct_us").BeginObject();
    writer.Key("count").UInt(fct.size());
    if (!fct.empty()) {
      writer.Key("p50").Double(Percentile(fct, 50.0));
      writer.Key("p99").Double(Percentile(fct, 99.0));
      writer.Key("p999").Double(Percentile(fct, 99.9));
      writer.Key("max").Double(Percentile(fct, 100.0));
    }
    writer.EndObject();
    writer.Key("flows_by_shard").BeginObject();
    for (const auto& [shard, count] : agg.flows_by_shard) {
      writer.Key(std::to_string(shard)).UInt(count);
    }
    writer.EndObject();
    writer.Key("fleet_row_present").Bool(agg.saw_fleet_row);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
}

/// Synthesize a small trace covering every event type (including a title
/// with characters that need JSON escaping), read it back, and check the
/// counts survive the round trip.
int SelfTest() {
  std::stringstream stream;
  {
    obs::QlogTracer tracer(stream, "selftest \"quoted\"\n\ttitle");
    quic::Frame stream_frame =
        quic::StreamFrame{StreamId{3}, ByteCount{0}, ByteCount{3}, false};
    quic::Frame ack = quic::AckFrame{
        PathId{0}, 25, {{PacketNumber{1}, PacketNumber{4}}}};
    tracer.OnHandshakeEvent(0, "chlo-sent");
    tracer.OnPathStateChange(10, PathId{0}, "created");
    tracer.OnSchedulerDecision(20, PathId{0}, "lowest-rtt", 137);
    tracer.OnFrameSent(30, PathId{0}, stream_frame);
    tracer.OnPacketSent(30, PathId{0}, PacketNumber{1}, ByteCount{1350}, true);
    tracer.OnPacketSent(40, PathId{1}, PacketNumber{1}, ByteCount{1350}, true);
    tracer.OnFrameReceived(50, PathId{0}, ack);
    tracer.OnPacketReceived(50, PathId{0}, PacketNumber{7}, ByteCount{40});
    tracer.OnPacketLost(60, PathId{1}, PacketNumber{1});
    tracer.OnPacketLifecycle(55, PathId{0}, PacketNumber{1}, "acked", 25);
    tracer.OnPacketLifecycle(60, PathId{1}, PacketNumber{1}, "lost", 20);
    tracer.OnFrameRetransmitQueued(60, PathId{1}, stream_frame);
    tracer.OnRto(70, PathId{1}, 1);
    tracer.OnPathSample(80, PathId{0}, ByteCount{42 * 1024},
                        ByteCount{10 * 1024}, 20000);
    tracer.OnFlowControlBlocked(90, StreamId{3});
    tracer.OnLinkFault(100, 1, "down", 0.0);
    tracer.OnLinkFault(110, 1, "burst-loss", 0.5);
    tracer.OnLinkFault(120, 1, "up", 0.0);
  }

  const auto summary = obs::ReadTrace(stream);
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  expect(summary.malformed == 0, "no malformed lines");
  expect(summary.events == 18, "18 events parsed");
  expect(summary.title.find("\"quoted\"") != std::string::npos,
         "escaped title round-trips");
  expect(summary.paths.at(0).packets_sent == 1, "path0 packets_sent");
  expect(summary.paths.at(1).packets_sent == 1, "path1 packets_sent");
  expect(summary.paths.at(1).packets_lost == 1, "path1 packets_lost");
  expect(summary.paths.at(1).rtos == 1, "path1 rtos");
  expect(summary.paths.at(0).cwnd_samples.size() == 1 &&
             summary.paths.at(0).cwnd_samples[0] == 42 * 1024,
         "cwnd sample");
  expect(summary.scheduler_reasons.at("lowest-rtt") == 1,
         "scheduler reason counted");
  expect(summary.frames_sent_by_type.at("STREAM") == 1, "frame type");
  expect(summary.paths.at(1).frames_requeued == 1, "path1 frames_requeued");
  expect(summary.frames_requeued_by_type.at("STREAM") == 1,
         "requeued frame type");
  expect(summary.handshake_milestones.at("chlo-sent") == 0,
         "handshake milestone");
  expect(summary.events_by_name.at("flow_control:blocked") == 1,
         "blocked event");
  expect(summary.link_faults.at("down") == 1 &&
             summary.link_faults.at("up") == 1 &&
             summary.link_faults.at("burst-loss") == 1,
         "link faults counted by kind");
  expect(summary.events_by_name.at("sim:link_down") == 1 &&
             summary.events_by_name.at("sim:fault") == 1,
         "fault event names");
  expect(summary.paths.at(0).acked_latency_us.size() == 1 &&
             summary.paths.at(0).acked_latency_us[0] == 25.0,
         "acked lifecycle latency");
  expect(summary.paths.at(1).lost_latency_us.size() == 1 &&
             summary.paths.at(1).lost_latency_us[0] == 20.0,
         "lost lifecycle latency");
  {
    // The --json rendering must itself be valid JSON with the lifecycle
    // percentiles present.
    obs::JsonWriter writer;
    WriteSummaryJson(summary, writer);
    const auto parsed = obs::JsonValue::Parse(writer.str());
    expect(parsed.has_value(), "--json output parses");
    if (parsed.has_value()) {
      const auto* paths = parsed->Find("paths");
      expect(paths != nullptr && paths->Find("0") != nullptr &&
                 paths->Find("0")->Find("lifecycle") != nullptr,
             "--json lifecycle present");
    }
  }

  {
    // Aggregate mode round trip: two labels, one incomplete flow, a
    // fleet rollup row, and a malformed line.
    std::stringstream metrics;
    metrics
        << R"({"label":"sp","conn":0,"shard":1,"arrival_us":0,)"
        << R"("size_bytes":1000,"completed":true,"fct_us":1000,)"
        << R"("goodput_mbps":8.0})" << '\n'
        << R"({"label":"sp","conn":1,"shard":1,"arrival_us":500,)"
        << R"("size_bytes":3000,"completed":true,"fct_us":1500,)"
        << R"("goodput_mbps":16.0})" << '\n'
        << R"({"label":"sp","conn":2,"shard":4,"arrival_us":900,)"
        << R"("size_bytes":5000,"completed":false,"fct_us":0,)"
        << R"("goodput_mbps":0.0})" << '\n'
        << R"({"label":"sp","fleet":{"flows":3,"completed":2}})" << '\n'
        << R"({"label":"mp","conn":0,"shard":0,"arrival_us":0,)"
        << R"("size_bytes":2000,"completed":true,"fct_us":2000,)"
        << R"("goodput_mbps":8.0})" << '\n'
        << "not json\n";
    const auto agg = ReadAggregate(metrics);
    expect(agg.malformed == 1, "aggregate: malformed line counted");
    expect(agg.rows == 5, "aggregate: five rows parsed");
    expect(agg.labels.size() == 2, "aggregate: two labels");
    const auto& sp = agg.labels.at("sp");
    expect(sp.flows == 3 && sp.completed == 2, "aggregate: sp flow counts");
    expect(sp.bytes == 4000, "aggregate: completed bytes only");
    expect(sp.saw_fleet_row, "aggregate: fleet row detected");
    expect(sp.flows_by_shard.at(1) == 2 && sp.flows_by_shard.at(4) == 1,
           "aggregate: shard distribution");
    // 4000 bytes over first arrival 0 .. last completion 2000 us.
    expect(AggregateGoodputMbps(sp) == 16.0, "aggregate: goodput math");
    expect(Jain({8.0, 16.0}) > 0.89 && Jain({8.0, 16.0}) < 0.91,
           "aggregate: jain math");
    obs::JsonWriter writer;
    WriteAggregateJson(agg, writer);
    const auto parsed = obs::JsonValue::Parse(writer.str());
    expect(parsed.has_value(), "aggregate: --json output parses");
    if (parsed.has_value()) {
      const auto* labels = parsed->Find("labels");
      expect(labels != nullptr && labels->Find("sp") != nullptr &&
                 labels->Find("sp")->Find("fct_us")->Find("count")->AsInt() ==
                     2,
             "aggregate: --json fct histogram count");
    }
  }

  if (failures == 0) {
    std::stringstream replay(stream.str());
    PrintSummary(obs::ReadTrace(replay));
    std::printf("\nselftest OK\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest();
  }
  bool json = false;
  bool aggregate = false;
  const char* file = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--aggregate") == 0) {
      aggregate = true;
    } else if (file == nullptr) {
      file = argv[i];
    } else {
      file = nullptr;
      break;
    }
  }
  if (file == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [--json] TRACE.qlog | --aggregate [--json] "
                 "METRICS.ndjson | --selftest\n"
                 "Summarize an NDJSON trace produced by obs::QlogTracer\n"
                 "(bench --obs DIR, or TransferOptions::qlog_path), or a\n"
                 "many-connection workload metrics file (--aggregate).\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(file);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", file);
    return 1;
  }
  if (aggregate) {
    const auto summary = ReadAggregate(in);
    if (summary.rows == 0) {
      std::fprintf(stderr, "no workload rows in %s (%llu malformed lines)\n",
                   file, static_cast<unsigned long long>(summary.malformed));
      return 1;
    }
    if (json) {
      obs::JsonWriter writer;
      WriteAggregateJson(summary, writer);
      std::printf("%s\n", writer.str().c_str());
    } else {
      PrintAggregate(summary);
    }
    return 0;
  }
  const auto summary = obs::ReadTrace(in);
  if (summary.events == 0) {
    std::fprintf(stderr, "no events in %s (%llu malformed lines)\n", file,
                 static_cast<unsigned long long>(summary.malformed));
    return 1;
  }
  if (json) {
    obs::JsonWriter writer;
    WriteSummaryJson(summary, writer);
    std::printf("%s\n", writer.str().c_str());
  } else {
    PrintSummary(summary);
  }
  return 0;
}
