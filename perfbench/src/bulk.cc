// bulk_mp: back-to-back 8 MB two-path MPQUIC downloads — the steady-state
// per-packet datapath (crypto, packet assembly and dispatch, source reads).
//
// The benchmark wires both endpoints itself from the public
// quic::Connection constructor, sim::Network::CreateSocket and socket
// receive handlers, doing exactly what quic::ClientEndpoint and a
// one-shard quic::Server do. Owning the wiring lets a traced run put
// spans around Connection::OnDatagram, the datagram send function, the
// stream source and the application sink; the traced run also replays one
// transfer through the public endpoints and checks both give the same
// packet and event counts.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/buf.h"
#include "common/source.h"
#include "crypto/aead.h"
#include "quic/connection.h"
#include "quic/endpoint.h"
#include "quic/trace.h"
#include "quic/wire.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mpq;

constexpr ByteCount kTransferSize{8 * 1024 * 1024};
constexpr StreamId kStream{3};
// Seeded inputs (endpoint and network seeds) the timed transfers cycle
// through.
constexpr int kInputs = 8;
constexpr TimePoint kTimeLimit = 600 * kSecond;
constexpr double kMiB = 1024.0 * 1024.0;
// Datagram sizes captured for the crypto replay (one transfer sends
// about 20k datagrams in both directions together; capture stops here).
constexpr std::size_t kMaxCapturedSizes = 1 << 16;

struct TransferSeeds {
  std::uint64_t net = 0;
  std::uint64_t server = 0;
  std::uint64_t client = 0;
};

/// What a transfer produced; the simulated part must repeat exactly.
struct TransferRecord {
  bool finished = false;
  bool payload_ok = false;
  ByteCount received{};
  std::uint64_t client_packets = 0;  // client packets sent + received
  std::uint64_t events = 0;
  TimePoint fct = 0;  // simulated, from Connect (t = 0) to the fin byte
  // Connection::StateDigest of both ends when the fin byte arrived.
  std::uint64_t client_digest = 0;
  std::uint64_t server_digest = 0;

  bool ok() const { return finished && payload_ok && received == kTransferSize; }
  bool SameSimulation(const TransferRecord& o) const {
    return finished == o.finished && received == o.received &&
           client_packets == o.client_packets && events == o.events &&
           fct == o.fct && client_digest == o.client_digest &&
           server_digest == o.server_digest;
  }
};

/// Counts the ConnectionTracer events the per-layer metrics need, without
/// allocating.
class CountingTracer final : public quic::ConnectionTracer {
 public:
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t decisions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t requeued_bytes = 0;

  void OnPacketSent(TimePoint, PathId, PacketNumber, ByteCount bytes,
                    bool) override {
    ++packets_sent;
    bytes_sent += bytes.value();
  }
  void OnPacketLost(TimePoint, PathId, PacketNumber) override {
    ++packets_lost;
  }
  void OnSchedulerDecision(TimePoint, PathId, const char* reason,
                           std::uint64_t) override {
    ++decisions;
    if (std::strcmp(reason, "duplicate") == 0) ++duplicates;
  }
  void OnFrameRetransmitQueued(TimePoint, PathId,
                               const quic::Frame& frame) override {
    requeued_bytes += quic::FrameWireSize(frame);
  }
};

/// Traced-run instrumentation; a transfer without probes runs only the
/// program and the payload check.
struct Probes {
  SpanRecorder spans;
  int run_one = spans.Define();
  int server_datagram = spans.Define();
  int client_datagram = spans.Define();
  int socket_send = spans.Define();
  int source_read = spans.Define();
  int deliver = spans.Define();
  std::uint64_t source_bytes = 0;
  AllocCount allocs;
  /// When non-null, the size of every datagram sent is appended (the
  /// vector is reserved up front; capture stops at its capacity).
  std::vector<std::uint32_t>* sizes = nullptr;
  /// When non-null, attached to the server's connection, the data sender.
  quic::ConnectionTracer* tracer = nullptr;
};

/// The server's PatternSource behind a span and a byte counter.
class TracedSource final : public SendSource {
 public:
  TracedSource(std::unique_ptr<SendSource> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(&probes) {}
  ByteCount size() const override { return inner_->size(); }
  void Read(ByteCount offset, std::span<std::uint8_t> out) const override {
    Span span(&probes_->spans, probes_->source_read);
    inner_->Read(offset, out);
    probes_->source_bytes += out.size();
  }

 private:
  std::unique_ptr<SendSource> inner_;
  Probes* probes_;
};

std::array<sim::PathParams, 2> PathParamsForLeg() {
  std::array<sim::PathParams, 2> params;
  params[0].capacity_mbps = 20;
  params[1].capacity_mbps = 20;
  params[0].rtt = 20 * kMillisecond;
  params[1].rtt = 40 * kMillisecond;
  for (auto& p : params) p.max_queue_delay = 60 * kMillisecond;
  return params;
}

quic::ConnectionConfig LegConfig() {
  quic::ConnectionConfig config;
  config.multipath = true;
  config.congestion = cc::Algorithm::kOlia;
  return config;
}

/// Server application: parse "GET <size>" on stream 3, answer with the
/// pattern bytes.
void InstallServerApp(quic::Connection& conn, std::string& request,
                      Probes* probes) {
  conn.SetStreamDataHandler([&conn, &request, probes](
                                StreamId id, ByteCount,
                                std::span<const std::uint8_t> data, bool fin) {
    request.append(data.begin(), data.end());
    if (fin && id == kStream) {
      const ByteCount size{std::stoull(request.substr(4))};
      std::unique_ptr<SendSource> source =
          std::make_unique<PatternSource>(kStream, size);
      if (probes != nullptr) {
        source = std::make_unique<TracedSource>(std::move(source), *probes);
      }
      conn.SendOnStream(kStream, std::move(source));
    }
  });
}

void SendRequest(quic::Connection& conn) {
  const std::string request = "GET " + std::to_string(kTransferSize.value());
  conn.SendOnStream(kStream,
                    std::make_unique<BufferSource>(
                        std::vector<std::uint8_t>(request.begin(), request.end())));
}

/// One transfer over the benchmark's own endpoint wiring. `timed` receives
/// the host time from Connect to the fin byte.
TransferRecord RunOwnTransfer(const TransferSeeds& seeds,
                              const std::vector<std::uint8_t>& expected,
                              Probes* probes, UnitTime& timed) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(seeds.net));
  auto topo = sim::BuildTwoPathTopology(net, PathParamsForLeg());
  const quic::ConnectionConfig config = LegConfig();
  SpanRecorder* spans = probes != nullptr ? &probes->spans : nullptr;

  // Both send functions: route to the socket bound at `local`.
  auto make_send = [probes, spans](const std::vector<sim::Address>& locals,
                                   const std::vector<sim::DatagramSocket*>& sockets) {
    return [probes, spans, locals, sockets](sim::Address local,
                                            sim::Address remote,
                                            std::vector<std::uint8_t> payload) {
      if (probes != nullptr && probes->sizes != nullptr &&
          probes->sizes->size() < probes->sizes->capacity()) {
        probes->sizes->push_back(static_cast<std::uint32_t>(payload.size()));
      }
      for (std::size_t i = 0; i < locals.size(); ++i) {
        if (locals[i] == local) {
          Span span(spans, probes != nullptr ? probes->socket_send : 0);
          sockets[i]->Send(remote, std::move(payload));
          return;
        }
      }
    };
  };

  // Server: one shard of quic::Server, reduced to the single connection
  // this workload opens.
  const std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                                topo.server_addr.end());
  std::vector<sim::DatagramSocket*> server_sockets;
  for (const auto& addr : server_locals) {
    server_sockets.push_back(net.CreateSocket(addr));
  }
  Rng server_rng(seeds.server);
  std::string request;
  std::unique_ptr<quic::Connection> server;
  for (auto* socket : server_sockets) {
    socket->SetReceiveHandler([&](const sim::Datagram& datagram) {
      BufReader reader(datagram.payload);
      std::uint8_t flags = 0;
      ConnectionId cid = 0;
      if (!reader.ReadU8(flags) || !reader.ReadU64(cid)) return;
      if (server == nullptr) {
        if ((flags & quic::kFlagHandshake) == 0) return;
        server = std::make_unique<quic::Connection>(
            sim, quic::Perspective::kServer, cid, config, server_rng.Fork(),
            make_send(server_locals, server_sockets));
        server->SetLocalAddresses(server_locals);
        if (probes != nullptr && probes->tracer != nullptr) {
          server->SetTracer(probes->tracer);
        }
        InstallServerApp(*server, request, probes);
      } else if (server->cid() != cid) {
        return;
      }
      Span span(spans, probes != nullptr ? probes->server_datagram : 0);
      server->OnDatagram(datagram);
    });
  }

  // Client: quic::ClientEndpoint.
  const std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                                topo.client_addr.end());
  std::vector<sim::DatagramSocket*> client_sockets;
  for (const auto& addr : client_locals) {
    client_sockets.push_back(net.CreateSocket(addr));
  }
  Rng client_rng(seeds.client);
  const ConnectionId client_cid = client_rng.NextU64() | 1;
  quic::Connection client(sim, quic::Perspective::kClient, client_cid, config,
                          client_rng.Fork(),
                          make_send(client_locals, client_sockets));
  client.SetLocalAddresses(client_locals);
  for (auto* socket : client_sockets) {
    socket->SetReceiveHandler([&](const sim::Datagram& datagram) {
      Span span(spans, probes != nullptr ? probes->client_datagram : 0);
      client.OnDatagram(datagram);
    });
  }

  TransferRecord record;
  record.payload_ok = true;
  client.SetStreamDataHandler([&](StreamId, ByteCount offset,
                                  std::span<const std::uint8_t> data,
                                  bool fin) {
    Span span(spans, probes != nullptr ? probes->deliver : 0);
    const std::uint64_t at = offset.value();
    if (offset != record.received || at + data.size() > expected.size() ||
        std::memcmp(expected.data() + at, data.data(), data.size()) != 0) {
      record.payload_ok = false;
    }
    record.received += data.size();
    if (fin) {
      record.finished = true;
      record.fct = sim.now();
    }
  });
  client.SetEstablishedHandler([&] { SendRequest(client); });

  if (probes != nullptr) StartAllocCounting();
  const Stopwatch stopwatch;
  client.Connect(topo.server_addr[0]);
  if (probes != nullptr) {
    bool more = true;
    while (!record.finished && more) {
      Span span(spans, probes->run_one);
      more = sim.RunOne(kTimeLimit);
    }
  } else {
    while (!record.finished && sim.RunOne(kTimeLimit)) {
    }
  }
  timed = stopwatch.Elapsed();
  if (probes != nullptr) {
    const AllocCount counted = StopAllocCounting();
    probes->allocs.allocs += counted.allocs;
    probes->allocs.bytes += counted.bytes;
  }

  record.client_packets =
      client.stats().packets_sent + client.stats().packets_received;
  record.events = sim.events_executed();
  record.client_digest = client.StateDigest();
  record.server_digest = server != nullptr ? server->StateDigest() : 0;
  for (auto& addr : client_locals) net.CloseSocket(addr);
  for (auto& addr : server_locals) net.CloseSocket(addr);
  return record;
}

/// The same transfer through the public endpoints, as the historical
/// engine leg (bench/bench_perf_baseline.cc) runs it: the reference the
/// benchmark's own wiring must match.
TransferRecord RunReferenceTransfer(const TransferSeeds& seeds,
                                    const std::vector<std::uint8_t>& expected) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(seeds.net));
  auto topo = sim::BuildTwoPathTopology(net, PathParamsForLeg());
  const quic::ConnectionConfig config = LegConfig();
  std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                          topo.server_addr.end());
  quic::ServerEndpoint server(sim, net, server_locals, config, seeds.server);
  std::string request;
  server.SetAcceptHandler([&request](quic::Connection& conn) {
    InstallServerApp(conn, request, nullptr);
  });
  std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                          topo.client_addr.end());
  quic::ClientEndpoint client(sim, net, client_locals, config, seeds.client);
  TransferRecord record;
  record.payload_ok = true;
  client.connection().SetStreamDataHandler(
      [&](StreamId, ByteCount offset, std::span<const std::uint8_t> data,
          bool fin) {
        const std::uint64_t at = offset.value();
        if (at + data.size() > expected.size() ||
            std::memcmp(expected.data() + at, data.data(), data.size()) != 0) {
          record.payload_ok = false;
        }
        record.received += data.size();
        if (fin) {
          record.finished = true;
          record.fct = sim.now();
        }
      });
  client.connection().SetEstablishedHandler(
      [&] { SendRequest(client.connection()); });
  client.Connect(topo.server_addr[0]);
  while (!record.finished && sim.RunOne(kTimeLimit)) {
  }
  record.client_packets = client.connection().stats().packets_sent +
                          client.connection().stats().packets_received;
  record.events = sim.events_executed();
  record.client_digest = client.connection().StateDigest();
  const std::vector<quic::Connection*> accepted = server.Connections();
  record.server_digest = accepted.size() == 1 ? accepted[0]->StateDigest() : 0;
  return record;
}

/// Fill `expected` with the payload the server sends. Repeated set-ups
/// refill the same buffer, so they do not raise peak memory.
void BuildExpectedPayload(std::vector<std::uint8_t>& expected) {
  expected.resize(kTransferSize.value());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = PatternByte(kStream.value(), ByteCount{i});
  }
}

struct CryptoCost {
  double seal_ns = 0;
  double open_ns = 0;
  bool round_trip_ok = true;
};

/// Seal and open every captured datagram size through PacketProtection,
/// as the connection does per packet: the first bytes stand for the
/// public header (authenticated, not encrypted), the rest is payload plus
/// tag space.
CryptoCost ReplayCrypto(const std::vector<std::uint32_t>& sizes,
                        std::uint64_t seed) {
  constexpr std::size_t kHeaderBytes = 12;
  crypto::ChaChaKey key;
  Rng rng(seed);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.NextU64());
  const crypto::PacketProtection protection(key);

  std::vector<std::size_t> offsets;
  std::size_t total = 0;
  for (const std::uint32_t size : sizes) {
    offsets.push_back(total);
    total += std::max<std::size_t>(size, kHeaderBytes + crypto::kAeadTagSize);
  }
  std::vector<std::uint8_t> original(total);
  for (auto& b : original) b = static_cast<std::uint8_t>(rng.NextU64());
  std::vector<std::uint8_t> work(total);

  CryptoCost cost;
  std::vector<double> seal_s, open_s;
  for (int rep = 0; rep < 5; ++rep) {
    work = original;
    auto packet = [&](std::size_t i) {
      const std::size_t end = i + 1 < offsets.size() ? offsets[i + 1] : total;
      std::span<std::uint8_t> whole(work.data() + offsets[i], end - offsets[i]);
      return std::make_pair(whole.first(kHeaderBytes),
                            whole.subspan(kHeaderBytes));
    };
    auto start = Clock::now();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      auto [aad, buf] = packet(i);
      protection.SealInPlace(PathId{1 + static_cast<std::uint32_t>(i % 2)},
                             PacketNumber{i + 1}, aad, buf);
    }
    seal_s.push_back(SecondsSince(start));
    start = Clock::now();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      auto [aad, buf] = packet(i);
      std::size_t plaintext_len = 0;
      if (!protection.OpenInPlace(PathId{1 + static_cast<std::uint32_t>(i % 2)},
                                  PacketNumber{i + 1}, aad, buf,
                                  plaintext_len)) {
        cost.round_trip_ok = false;
      }
    }
    open_s.push_back(SecondsSince(start));
    // open(seal(x)) == x over header and plaintext; the tag bytes differ.
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t end = i + 1 < offsets.size() ? offsets[i + 1] : total;
      const std::size_t len = end - offsets[i] - crypto::kAeadTagSize;
      if (std::memcmp(work.data() + offsets[i], original.data() + offsets[i],
                      len) != 0) {
        cost.round_trip_ok = false;
      }
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(sizes.size(), 1));
  cost.seal_ns = Median(seal_s) * 1e9 / n;
  cost.open_ns = Median(open_s) * 1e9 / n;
  return cost;
}

}  // namespace

void RunBulk(const Args& args, Report& report) {
  std::vector<TransferSeeds> inputs;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back({DeriveSeed(args.seed, 1, i), DeriveSeed(args.seed, 2, i),
                      DeriveSeed(args.seed, 3, i)});
  }
  // Set-up: the expected payload every delivered chunk is compared with.
  std::vector<std::uint8_t> expected;
  SetupTimer setup([&] { BuildExpectedPayload(expected); });

  // First record per input: every later run of the same input must repeat
  // it exactly.
  std::vector<TransferRecord> first(inputs.size());
  std::vector<bool> have_first(inputs.size(), false);
  auto check = [&](std::size_t i, const TransferRecord& record) {
    bool ok = record.ok();
    if (!have_first[i]) {
      first[i] = record;
      have_first[i] = true;
    } else if (!record.SameSimulation(first[i])) {
      ok = false;
    }
    report.Attempt(1, ok ? 0 : 1);
  };
  // One timed unit = one transfer; units cycle through the inputs.
  std::uint64_t units_run = 0;
  std::uint64_t unit_packets = 0;
  auto run_unit = [&](Probes* probes) {
    const std::size_t i = units_run++ % inputs.size();
    UnitTime time;
    const TransferRecord record = RunOwnTransfer(inputs[i], expected, probes, time);
    unit_packets += record.client_packets;
    check(i, record);
    return time;
  };

  {  // Warm-up: one untimed transfer (lazy init, page faults, caches).
    UnitTime ignored;
    check(0, RunOwnTransfer(inputs[0], expected, nullptr, ignored));
  }
  const double budget = args.trace ? args.seconds * 0.4 : args.seconds;
  const std::vector<UnitTime> timed =
      RepeatUnits(budget, static_cast<int>(inputs.size()),
                  [&] { return run_unit(nullptr); }, &setup);
  const double setup_s = setup.Fastest();
  const UnitTime fastest = FastestUnit(timed);
  report.NoteUnits("untraced", timed);
  const double packets_per_transfer =
      static_cast<double>(unit_packets) / static_cast<double>(timed.size());
  std::vector<double> fcts_ms;
  for (const TransferRecord& r : first) {
    fcts_ms.push_back(static_cast<double>(r.fct) / kMillisecond);
  }
  const Tail tail = TailPercentile(fcts_ms);

  report.Note("unit = one 8 MB transfer; sim_fct_tail_ms is the " + tail.label +
              " of " + std::to_string(fcts_ms.size()) + " seeded inputs");
  report.Note("client packets per transfer: " +
              std::to_string(first[0].client_packets) +
              ", sim events per transfer: " + std::to_string(first[0].events));
  report.Add("setup_s", setup_s, "s");
  report.Add("wall_s", fastest.wall_s, "s");
  report.Add("cpu_s", fastest.cpu_s, "s");
  report.Add("pkts_per_s", packets_per_transfer / fastest.wall_s, "1/s");
  report.Add("payload_mb_per_s",
             static_cast<double>(kTransferSize.value()) / kMiB / fastest.wall_s,
             "MB/s");
  report.Add("flows_per_s", 1.0 / fastest.wall_s, "1/s");
  report.Add("sim_fct_p50_ms", Median(fcts_ms), "sim_ms");
  report.Add("sim_fct_tail_ms", tail.value, "sim_ms");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  // ---- traced run: the same transfers with spans and allocation counting.
  Probes probes;
  unit_packets = 0;
  const std::vector<UnitTime> traced = RepeatUnits(
      args.seconds * 0.4, static_cast<int>(inputs.size()),
      [&] { return run_unit(&probes); });
  const double traced_transfers = static_cast<double>(traced.size());
  double traced_wall_s = 0;
  for (const UnitTime& p : traced) traced_wall_s += p.wall_s;
  const double traced_wall_ns = traced_wall_s * 1e9;
  const double packets = static_cast<double>(unit_packets);

  // One counted transfer: a ConnectionTracer on the data sender (the
  // server), and the size of every datagram either end sent for the
  // crypto replay.
  CountingTracer counter;
  std::vector<std::uint32_t> sizes;
  sizes.reserve(kMaxCapturedSizes);
  {
    Probes counting;
    counting.tracer = &counter;
    counting.sizes = &sizes;
    UnitTime ignored;
    check(0, RunOwnTransfer(inputs[0], expected, &counting, ignored));
  }

  // Cross-check: the public endpoints give the same simulation, at this
  // run's first input and at the historical engine leg's seeds.
  const TransferRecord reference = RunReferenceTransfer(inputs[0], expected);
  if (!reference.ok() || !reference.SameSimulation(first[0])) {
    report.Fail("own endpoint wiring differs from quic::ClientEndpoint/Server");
  }
  const TransferSeeds leg_seeds{12345, 7, 8};
  UnitTime ignored;
  const TransferRecord leg_own =
      RunOwnTransfer(leg_seeds, expected, nullptr, ignored);
  const TransferRecord leg_ref = RunReferenceTransfer(leg_seeds, expected);
  if (!leg_own.ok() || !leg_own.SameSimulation(leg_ref)) {
    report.Fail("own wiring differs from the engine leg at its seeds");
  }
  report.Note("engine-leg seeds (12345/7/8): " +
              std::to_string(leg_own.client_packets) +
              " client packets per transfer, own wiring " +
              (leg_own.SameSimulation(leg_ref) ? "==" : "!=") + " reference");

  const CryptoCost crypto = ReplayCrypto(sizes, args.seed);
  if (!crypto.round_trip_ok || sizes.empty()) {
    report.Fail("crypto replay: open(seal(x)) != x");
  }

  const auto& t = probes.spans;
  const auto per_call = [&](int kind, bool self) {
    const auto& k = t.totals(kind);
    return k.count == 0 ? 0.0
                        : (self ? k.self_ns() : double(k.total_ns)) /
                              static_cast<double>(k.count);
  };
  const double datagrams_sent = double(t.totals(probes.socket_send).count);
  const double datagrams_opened =
      double(t.totals(probes.server_datagram).count +
             t.totals(probes.client_datagram).count);
  const double untraced_wall_ns = fastest.wall_s * 1e9;
  const double crypto_ns_per_transfer =
      (crypto.seal_ns * datagrams_sent + crypto.open_ns * datagrams_opened) /
      traced_transfers;
  const double payload_bytes = traced_transfers * double(kTransferSize.value());
  const double events_per_transfer = double(first[0].events);
  const double sent_packets = double(std::max<std::uint64_t>(counter.packets_sent, 1));

  report.Add("trace.overhead_frac",
             FastestUnit(traced).wall_s / fastest.wall_s - 1, "frac");
  report.Add("trace.coverage", double(t.totals(probes.run_one).total_ns) / traced_wall_ns,
             "frac");
  report.Add("alloc.per_flow", double(probes.allocs.allocs) / traced_transfers, "count");
  report.Add("alloc.bytes_per_flow", double(probes.allocs.bytes) / traced_transfers, "B");
  report.Add("alloc.per_pkt", double(probes.allocs.allocs) / packets, "count");
  report.Add("alloc.bytes_per_pkt", double(probes.allocs.bytes) / packets, "B");
  report.Add("crypto.seal_ns", crypto.seal_ns, "ns");
  report.Add("crypto.open_ns", crypto.open_ns, "ns");
  report.Add("crypto.share_est", crypto_ns_per_transfer / untraced_wall_ns, "frac");
  report.Add("common.source_read_ns_per_kb",
             double(t.totals(probes.source_read).total_ns) /
                 (double(probes.source_bytes) / 1024.0),
             "ns");
  report.Add("common.source_share",
             double(t.totals(probes.source_read).total_ns) / traced_wall_ns, "frac");
  report.Add("common.source_bytes_per_payload_byte",
             double(probes.source_bytes) / payload_bytes, "ratio");
  report.Add("quic.server_on_datagram_self_ns", per_call(probes.server_datagram, true), "ns");
  report.Add("quic.client_on_datagram_self_ns", per_call(probes.client_datagram, true), "ns");
  report.Add("quic.sched_decisions_per_pkt", double(counter.decisions) / sent_packets, "count");
  report.Add("quic.dup_pkts_frac", double(counter.duplicates) / sent_packets, "frac");
  report.Add("quic.retx_bytes_frac",
             double(counter.requeued_bytes) /
                 double(std::max<std::uint64_t>(counter.bytes_sent, 1)),
             "frac");
  report.Add("quic.lost_pkts_frac", double(counter.packets_lost) / sent_packets, "frac");
  report.Add("sim.socket_send_ns", per_call(probes.socket_send, false), "ns");
  report.Add("sim.run_one_self_ns", per_call(probes.run_one, true), "ns");
  report.Add("sim.events_per_pkt", events_per_transfer / double(first[0].client_packets),
             "count");
  report.Add("sim.events_per_flow", events_per_transfer, "count");
  report.Add("sim.ns_per_event",
             untraced_wall_ns / events_per_transfer, "ns");
  report.Add("app.deliver_ns", per_call(probes.deliver, false), "ns");
}

}  // namespace perfbench
