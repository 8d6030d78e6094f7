// Unit tests for the observability module: histogram bucketing, JSON
// writing/escaping/parsing round trips, metrics registry snapshots, the
// tracer mux fan-out and the metrics tracer bindings.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/metrics_tracer.h"
#include "obs/mux.h"
#include "obs/qlog.h"
#include "obs/trace_reader.h"
#include "quic/trace.h"
#include "quic/wire.h"

namespace mpq::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucketing

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<std::size_t>(v)),
              static_cast<std::uint64_t>(v));
  }
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  // For every probed value, the bucket's [lower, next-lower) range must
  // contain it, and indices must be monotone in the value.
  std::size_t previous = 0;
  for (std::int64_t v : {0LL, 1LL, 31LL, 32LL, 33LL, 47LL, 48LL, 63LL, 64LL,
                         100LL, 1000LL, 65535LL, 65536LL, 1LL << 30,
                         (1LL << 40) + 12345, (1LL << 62)}) {
    const std::size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kBucketCount);
    EXPECT_GE(index, previous) << "v=" << v;
    previous = index;
    EXPECT_LE(Histogram::BucketLowerBound(index),
              static_cast<std::uint64_t>(v))
        << "v=" << v;
    if (index + 1 < Histogram::kBucketCount) {
      EXPECT_GT(Histogram::BucketLowerBound(index + 1),
                static_cast<std::uint64_t>(v))
          << "v=" << v;
    }
  }
}

TEST(Histogram, RelativeBucketWidthIsBounded) {
  // Log-linear promise: above the exact region, bucket width / lower
  // bound <= 1/16, i.e. any value is known to ~6%.
  for (std::size_t index = 32; index + 1 < Histogram::kBucketCount; ++index) {
    const double low = static_cast<double>(Histogram::BucketLowerBound(index));
    const double high =
        static_cast<double>(Histogram::BucketLowerBound(index + 1));
    EXPECT_LE((high - low) / low, 1.0 / 16.0 + 1e-9) << "index=" << index;
  }
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, PercentilesApproximateUniformData) {
  Histogram h;
  for (int v = 1; v <= 10000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10000);
  EXPECT_NEAR(h.mean(), 5000.5, 0.1);
  EXPECT_NEAR(h.Percentile(50), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(h.Percentile(90), 9000.0, 9000.0 * 0.07);
  EXPECT_NEAR(h.Percentile(99), 9900.0, 9900.0 * 0.07);
  // Extremes clamp to the exact recorded min/max.
  EXPECT_EQ(h.Percentile(0), 1.0);
  EXPECT_EQ(h.Percentile(100), 10000.0);
}

TEST(Histogram, P999TracksTheExtremeTail) {
  // 10000 samples at 100 plus 50 at 100000 (0.5% of the total): the
  // p99.9 rank (~10040 of 10050) lands in the tail, p99 (~9950) stays
  // in the body.
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.Record(100);
  for (int i = 0; i < 50; ++i) h.Record(100000);
  EXPECT_NEAR(h.Percentile(99), 100.0, 100.0 * 0.07);
  EXPECT_NEAR(h.Percentile(99.9), 100000.0, 100000.0 * 0.07);
}

TEST(Histogram, WriteJsonIncludesP999) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  JsonWriter writer;
  h.WriteJson(writer);
  const auto parsed = JsonValue::Parse(writer.str());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* p999 = parsed->Find("p999");
  ASSERT_NE(p999, nullptr);
  EXPECT_GE(p999->AsDouble(), parsed->Find("p99")->AsDouble());
  EXPECT_EQ(parsed->Find("sum_saturated"), nullptr);  // only when flagged
}

TEST(Histogram, SumSurvivesValuesThatOverflowUint64) {
  // Three INT64_MAX samples sum past 2^64. With 128-bit accumulation the
  // mean is exact; without it the sum saturates and says so — either
  // way mean() must not wrap around.
  Histogram h;
  for (int i = 0; i < 3; ++i) h.Record(INT64_MAX);
  EXPECT_EQ(h.count(), 3u);
  if (h.sum_saturated()) {
    EXPECT_GT(h.mean(), 0.0);  // lower bound, not garbage
  } else {
    EXPECT_NEAR(h.mean(), static_cast<double>(INT64_MAX),
                static_cast<double>(INT64_MAX) * 1e-9);
  }
}

TEST(Histogram, MergeCombinesCountsExtremesAndSum) {
  Histogram a;
  Histogram b;
  for (int v = 1; v <= 100; ++v) a.Record(v);
  for (int v = 901; v <= 1000; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.mean(), (5050.0 + 95050.0) / 200.0, 0.1);
  EXPECT_NEAR(a.Percentile(50), 100.0, 100.0 * 0.07);

  // Merging an empty histogram is a no-op.
  a.Merge(Histogram{});
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 1);
}

TEST(Histogram, EmptyHistogramIsAllZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

// ---------------------------------------------------------------------------
// JSON writing and escaping

TEST(Json, EscapingRoundTrips) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x07 null-ish\x01 "
      "utf8 \xC3\xA9\xE2\x82\xAC end";
  std::string encoded;
  AppendJsonString(encoded, nasty);
  // Encoded form is printable ASCII + the original UTF-8 bytes: no raw
  // control characters survive.
  for (char ch : encoded) {
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
  }
  const auto parsed = JsonValue::Parse(encoded);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), nasty);
}

TEST(Json, UnicodeEscapeDecodes) {
  const auto parsed = JsonValue::Parse("\"a\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), "aA\xC3\xA9\xE2\x82\xAC");
}

TEST(Json, WriterProducesParseableNestedDocument) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("int").Int(-42);
  writer.Key("uint").UInt(18446744073709551615ULL);
  writer.Key("pi").Double(3.25);
  writer.Key("yes").Bool(true);
  writer.Key("nothing").Null();
  writer.Key("list").BeginArray();
  writer.Int(1).Int(2).BeginObject().Key("deep").String("value").EndObject();
  writer.EndArray();
  writer.EndObject();

  const auto parsed = JsonValue::Parse(writer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("int")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsDouble(), 3.25);
  EXPECT_TRUE(parsed->Find("yes")->AsBool());
  ASSERT_NE(parsed->Find("list"), nullptr);
  const auto& list = parsed->Find("list")->AsArray();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].AsInt(), 1);
  EXPECT_EQ(list[2].Find("deep")->AsString(), "value");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\escape\"").has_value());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,2").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
}

TEST(Json, ParseAcceptsSurroundingWhitespace) {
  const auto parsed = JsonValue::Parse("  {\"a\": [1, 2]}\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("a")->AsArray().size(), 2u);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistry, SnapshotIsDeterministicAndParseable) {
  MetricsRegistry registry;
  registry.GetCounter("zulu").Increment(3);
  registry.GetCounter("alpha").Increment();
  registry.GetGauge("cwnd").Set(-7);
  auto& h = registry.GetHistogram("rtt_us");
  h.Record(100);
  h.Record(200);

  const std::string snapshot = registry.SnapshotJson();
  EXPECT_EQ(snapshot, registry.SnapshotJson());  // stable
  // Sorted iteration: "alpha" serializes before "zulu".
  EXPECT_LT(snapshot.find("\"alpha\""), snapshot.find("\"zulu\""));

  const auto parsed = JsonValue::Parse(snapshot);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("counters")->Find("zulu")->AsInt(), 3);
  EXPECT_EQ(parsed->Find("counters")->Find("alpha")->AsInt(), 1);
  EXPECT_EQ(parsed->Find("gauges")->Find("cwnd")->AsInt(), -7);
  const JsonValue* rtt = parsed->Find("histograms")->Find("rtt_us");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->Find("count")->AsInt(), 2);
  EXPECT_EQ(rtt->Find("min")->AsInt(), 100);
  EXPECT_EQ(rtt->Find("max")->AsInt(), 200);
  EXPECT_DOUBLE_EQ(rtt->Find("mean")->AsDouble(), 150.0);
}

TEST(MetricsRegistry, MergeFromFoldsShardRegistries) {
  // The shard-reduction path (harness/workload.cc): counters add,
  // histograms bucket-merge, gauges take the merged-in value, and
  // metrics absent on one side survive.
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("flows").Increment(3);
  b.GetCounter("flows").Increment(4);
  b.GetCounter("only_b").Increment(9);
  a.GetGauge("depth").Set(5);
  b.GetGauge("depth").Set(11);
  a.GetHistogram("fct").Record(100);
  b.GetHistogram("fct").Record(300);
  b.GetHistogram("fct").Record(200);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("flows").value(), 7u);
  EXPECT_EQ(a.GetCounter("only_b").value(), 9u);
  EXPECT_EQ(a.GetGauge("depth").value(), 11);  // last write wins
  EXPECT_EQ(a.GetHistogram("fct").count(), 3u);
  EXPECT_EQ(a.GetHistogram("fct").min(), 100);
  EXPECT_EQ(a.GetHistogram("fct").max(), 300);
  EXPECT_DOUBLE_EQ(a.GetHistogram("fct").mean(), 200.0);
  // b is untouched.
  EXPECT_EQ(b.GetCounter("flows").value(), 4u);
  EXPECT_EQ(b.GetHistogram("fct").count(), 2u);
}

TEST(MetricsRegistry, MergeOrderIsAssociativeForSnapshots) {
  // Folding shard registries 0..n-1 into an empty fleet registry in
  // shard order must give the same snapshot as any bracketing: counters
  // and histogram buckets are commutative monoids.
  MetricsRegistry s0, s1, s2;
  s0.GetCounter("c").Increment(1);
  s1.GetCounter("c").Increment(2);
  s2.GetCounter("c").Increment(4);
  s0.GetHistogram("h").Record(10);
  s1.GetHistogram("h").Record(20);
  s2.GetHistogram("h").Record(40);

  MetricsRegistry left;  // ((0 + 1) + 2)
  left.MergeFrom(s0);
  left.MergeFrom(s1);
  left.MergeFrom(s2);
  MetricsRegistry pair;  // (1 + 2) merged into 0
  MetricsRegistry rest;
  rest.MergeFrom(s1);
  rest.MergeFrom(s2);
  MetricsRegistry right;
  right.MergeFrom(s0);
  right.MergeFrom(rest);
  EXPECT_EQ(left.SnapshotJson(), right.SnapshotJson());
}

TEST(MetricsRegistry, ReferencesAreStable) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("hot");
  for (int i = 0; i < 100; ++i) registry.GetCounter("filler" + std::to_string(i));
  c.Increment(5);
  EXPECT_EQ(registry.GetCounter("hot").value(), 5u);
}

// ---------------------------------------------------------------------------
// Tracer mux and metrics tracer

TEST(TracerMux, FansOutEveryEventToAllSinks) {
  quic::CountingTracer a;
  quic::CountingTracer b;
  TracerMux mux;
  mux.Add(&a);
  mux.Add(&b);
  mux.Add(nullptr);  // ignored
  EXPECT_EQ(mux.size(), 2u);

  const quic::Frame ping = quic::PingFrame{};
  mux.OnPacketSent(1, PathId{0}, PacketNumber{1}, ByteCount{100}, true);
  mux.OnPacketReceived(2, PathId{1}, PacketNumber{1}, ByteCount{50});
  mux.OnPacketLost(3, PathId{0}, PacketNumber{1});
  mux.OnFrameSent(4, PathId{0}, ping);
  mux.OnFrameReceived(5, PathId{0}, ping);
  mux.OnSchedulerDecision(6, PathId{1}, "lowest-rtt", 10);
  mux.OnPathSample(7, PathId{0}, ByteCount{1000}, ByteCount{500}, 20000);
  mux.OnRto(8, PathId{0}, 2);
  mux.OnFrameRetransmitQueued(9, PathId{0}, ping);
  mux.OnFlowControlBlocked(10, StreamId{0});
  mux.OnHandshakeEvent(11, "established");
  mux.OnPathStateChange(12, PathId{1}, "created");
  mux.OnPacketLifecycle(13, PathId{0}, PacketNumber{1}, "acked", 450);

  for (const quic::CountingTracer* t : {&a, &b}) {
    EXPECT_EQ(t->lifecycle_events, 1u);
    EXPECT_EQ(t->packets_sent, 1u);
    EXPECT_EQ(t->packets_received, 1u);
    EXPECT_EQ(t->packets_lost, 1u);
    EXPECT_EQ(t->frames_sent, 1u);
    EXPECT_EQ(t->frames_received, 1u);
    EXPECT_EQ(t->scheduler_decisions, 1u);
    EXPECT_EQ(t->path_samples, 1u);
    EXPECT_EQ(t->rto_events, 1u);
    EXPECT_EQ(t->frames_requeued, 1u);
    EXPECT_EQ(t->flow_blocked_events, 1u);
    EXPECT_EQ(t->handshake_events, 1u);
    ASSERT_EQ(t->state_changes.size(), 1u);
    EXPECT_EQ(t->state_changes[0], "1:created");
  }
}

TEST(TracerMux, DeliversToSinksInRegistrationOrder) {
  // Fan-out order is part of the contract: a MetricsTracer registered
  // before a QlogTracer sees every event first, so a qlog line never
  // describes state a metrics snapshot taken "after" it lacks.
  struct OrderTracer final : quic::ConnectionTracer {
    OrderTracer(std::vector<std::string>* log, std::string name)
        : log(log), name(std::move(name)) {}
    std::vector<std::string>* log;
    std::string name;
    void OnPacketLost(TimePoint, PathId, PacketNumber) override {
      log->push_back(name + ":lost");
    }
    void OnPacketLifecycle(TimePoint, PathId, PacketNumber, const char* stage,
                           Duration) override {
      log->push_back(name + ":" + stage);
    }
  };
  std::vector<std::string> log;
  OrderTracer first(&log, "first");
  OrderTracer second(&log, "second");
  TracerMux mux;
  mux.Add(&first);
  mux.Add(&second);

  mux.OnPacketLost(1, PathId{0}, PacketNumber{7});
  mux.OnPacketLifecycle(2, PathId{0}, PacketNumber{7}, "acked", 99);

  const std::vector<std::string> expected = {"first:lost", "second:lost",
                                             "first:acked", "second:acked"};
  EXPECT_EQ(log, expected);
}

TEST(MetricsTracer, BindsEventsToRegistryMetrics) {
  MetricsRegistry registry;
  MetricsTracer tracer(registry);

  tracer.OnPacketSent(1, PathId{0}, PacketNumber{1}, ByteCount{1350}, true);
  tracer.OnPacketSent(2, PathId{1}, PacketNumber{1}, ByteCount{1350}, true);
  tracer.OnPacketLost(3, PathId{1}, PacketNumber{1});
  tracer.OnSchedulerDecision(4, PathId{0}, "lowest-rtt", 250);
  tracer.OnPathSample(5, PathId{0}, ByteCount{40000}, ByteCount{20000}, 22000);
  tracer.OnFrameSent(6, PathId{0}, quic::Frame(quic::AckFrame{PathId{0}, 123, {{PacketNumber{1}, PacketNumber{1}}}}));
  tracer.OnRto(7, PathId{1}, 1);
  tracer.OnHandshakeEvent(8, "established");
  tracer.OnPacketLifecycle(9, PathId{0}, PacketNumber{1}, "acked", 420);
  tracer.OnPacketLifecycle(10, PathId{0}, PacketNumber{2}, "acked", 380);
  tracer.OnPacketLifecycle(11, PathId{1}, PacketNumber{1}, "lost", 9000);

  EXPECT_EQ(registry.GetCounter("packets_sent").value(), 2u);
  EXPECT_EQ(registry.GetCounter("packets_lost").value(), 1u);
  EXPECT_EQ(registry.GetCounter("path.0.packets_sent").value(), 1u);
  EXPECT_EQ(registry.GetCounter("path.1.packets_lost").value(), 1u);
  EXPECT_EQ(registry.GetCounter("path.0.bytes_sent").value(), 1350u);
  EXPECT_EQ(registry.GetCounter("path.0.scheduled").value(), 1u);
  EXPECT_EQ(registry.GetCounter("rtos").value(), 1u);
  EXPECT_EQ(registry.GetGauge("path.0.cwnd").value(), 40000);
  EXPECT_EQ(registry.GetGauge("handshake.established.time_us").value(), 8);
  EXPECT_EQ(registry.GetHistogram("srtt_us").count(), 1u);
  EXPECT_EQ(registry.GetHistogram("ack_delay_us").count(), 1u);
  EXPECT_EQ(registry.GetHistogram("scheduler_decision_ns").count(), 1u);
  EXPECT_EQ(registry.GetHistogram("path.0.lifecycle.acked_us").count(), 2u);
  EXPECT_EQ(registry.GetHistogram("path.0.lifecycle.acked_us").max(), 420);
  EXPECT_EQ(registry.GetHistogram("path.1.lifecycle.lost_us").count(), 1u);
}

// ---------------------------------------------------------------------------
// Qlog writer <-> trace reader round trip

TEST(QlogTracer, EventsRoundTripThroughReader) {
  std::stringstream stream;
  {
    QlogTracer tracer(stream, "round \"trip\"");
    tracer.OnPacketSent(100, PathId{0}, PacketNumber{1}, ByteCount{1350}, true);
    tracer.OnPacketSent(200, PathId{1}, PacketNumber{1}, ByteCount{1350}, true);
    tracer.OnPacketLost(300, PathId{1}, PacketNumber{1});
    tracer.OnSchedulerDecision(400, PathId{0}, "lowest-rtt", 77);
    tracer.OnPathSample(500, PathId{0}, ByteCount{32768}, ByteCount{1350}, 20000);
    EXPECT_EQ(tracer.events_written(), 5u);
  }
  auto summary = ReadTrace(stream);
  EXPECT_EQ(summary.title, "round \"trip\"");
  EXPECT_EQ(summary.events, 5u);
  EXPECT_EQ(summary.malformed, 0u);
  EXPECT_EQ(summary.first_time, 100);
  EXPECT_EQ(summary.last_time, 500);
  EXPECT_EQ(summary.paths[0].packets_sent, 1u);
  EXPECT_EQ(summary.paths[1].packets_sent, 1u);
  EXPECT_EQ(summary.paths[1].packets_lost, 1u);
  EXPECT_EQ(summary.scheduler_reasons["lowest-rtt"], 1u);
  ASSERT_EQ(summary.paths[0].cwnd_samples.size(), 1u);
  EXPECT_EQ(summary.paths[0].cwnd_samples[0], 32768.0);
}

TEST(QlogTracer, LifecycleEventsRoundTripThroughReader) {
  std::stringstream stream;
  {
    QlogTracer tracer(stream, "lifecycle");
    tracer.OnPacketLifecycle(100, PathId{0}, PacketNumber{1}, "acked", 450);
    tracer.OnPacketLifecycle(200, PathId{0}, PacketNumber{2}, "acked", 510);
    tracer.OnPacketLifecycle(300, PathId{1}, PacketNumber{1}, "lost", 12000);
    EXPECT_EQ(tracer.events_written(), 3u);
  }
  const auto summary = ReadTrace(stream);
  EXPECT_EQ(summary.events, 3u);
  EXPECT_EQ(summary.malformed, 0u);
  ASSERT_EQ(summary.paths.at(0).acked_latency_us.size(), 2u);
  EXPECT_EQ(summary.paths.at(0).acked_latency_us[0], 450.0);
  EXPECT_EQ(summary.paths.at(0).acked_latency_us[1], 510.0);
  ASSERT_EQ(summary.paths.at(1).lost_latency_us.size(), 1u);
  EXPECT_EQ(summary.paths.at(1).lost_latency_us[0], 12000.0);
  EXPECT_TRUE(summary.paths.at(0).lost_latency_us.empty());
}

TEST(QlogTracer, EveryLineIsValidJson) {
  std::stringstream stream;
  {
    QlogTracer tracer(stream, "json\ncheck");
    tracer.OnHandshakeEvent(1, "chlo-sent");
    tracer.OnFrameSent(
        2, PathId{0},
        quic::Frame(quic::StreamFrame{StreamId{3}, ByteCount{0}, ByteCount{2},
                                      true}));
    tracer.OnFrameSent(3, PathId{0},
                       quic::Frame(quic::ConnectionCloseFrame{7, "bye\"\n"}));
  }
  std::string line;
  std::size_t lines = 0;
  while (std::getline(stream, line)) {
    ++lines;
    EXPECT_TRUE(JsonValue::Parse(line).has_value()) << "line: " << line;
  }
  EXPECT_EQ(lines, 4u);  // preamble + 3 events
}

TEST(Qlog, SentStreamFrameLengthIsPayloadLength) {
  // A sent STREAM frame is a descriptor: `length` says how many payload
  // bytes the packet carries while `data` stays empty. Both the qlog
  // event and the frame's wire size must come from `length`.
  const quic::StreamFrame sent{StreamId{3}, ByteCount{70000}, ByteCount{1200},
                               false};
  ASSERT_TRUE(sent.data.empty());
  EXPECT_EQ(quic::FrameWireSize(quic::Frame{sent}),
            1 + VarintSize(3) + VarintSize(70000) + VarintSize(1200) + 1 +
                1200);
  std::stringstream stream;
  {
    QlogTracer tracer(stream, "descriptor");
    tracer.OnFrameSent(1, PathId{0}, quic::Frame{sent});
  }
  std::string line;
  std::getline(stream, line);  // preamble
  ASSERT_TRUE(std::getline(stream, line));
  const auto event = JsonValue::Parse(line);
  ASSERT_TRUE(event.has_value()) << line;
  const JsonValue* data = event->Find("data");
  ASSERT_NE(data, nullptr) << line;
  ASSERT_NE(data->Find("length"), nullptr) << line;
  EXPECT_EQ(data->Find("length")->AsInt(), 1200);
  EXPECT_EQ(data->Find("offset")->AsInt(), 70000);
}

TEST(TraceReader, RejectsMalformedAndTruncatedLines) {
  std::stringstream stream;
  stream << "{\"qlog_format\":\"NDJSON\",\"title\":\"strict\"}\n"
         << "{\"name\":\"transport:packet_sent\",\"time\":5,"
            "\"data\":{\"path\":0,\"bytes\":100}}\n"
         << "not json at all\n"                              // parse failure
         << "{\"name\":\"transport:packet_sent\"}\n"        // missing time
         << "{\"time\":9}\n"                                // missing name
         << "{\"name\":42,\"time\":9}\n"                    // name not a string
         << "{\"name\":\"x\",\"time\":-3}\n"              // negative time
         << "{\"name\":\"x\",\"time\":1,\"data\":7}\n"    // data not an object
         << "{\"name\":\"x\",\"time\":1,"
            "\"data\":{\"path\":9999}}\n"                  // path out of range
         << "[1,2,3]\n"                                     // not an object
         << "{\"name\":\"transport:packet_sent\",\"time\":6";  // truncated
  const auto summary = ReadTrace(stream);
  EXPECT_EQ(summary.events, 1u);
  EXPECT_EQ(summary.malformed, 9u);
  EXPECT_EQ(summary.paths.at(0).packets_sent, 1u);
  EXPECT_EQ(summary.title, "strict");
}

TEST(TraceReader, TruncatedFinalEventDoesNotCount) {
  // A well-formed stream whose last line lost its newline (crashed
  // writer): the complete prefix still summarizes, the tail is flagged.
  std::stringstream stream;
  stream << "{\"name\":\"recovery:rto\",\"time\":1,"
            "\"data\":{\"path\":1}}\n"
         << "{\"name\":\"recovery:rto\",\"time\":2,"
            "\"data\":{\"path\":1}}";
  const auto summary = ReadTrace(stream);
  EXPECT_EQ(summary.events, 1u);
  EXPECT_EQ(summary.malformed, 1u);
  EXPECT_EQ(summary.paths.at(1).rtos, 1u);
  EXPECT_EQ(summary.last_time, 1);
}

}  // namespace
}  // namespace mpq::obs
