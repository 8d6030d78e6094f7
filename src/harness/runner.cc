#include "harness/runner.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "common/source.h"
#include "obs/metrics_tracer.h"
#include "obs/mux.h"
#include "obs/qlog.h"
#include "quic/endpoint.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "tcpsim/endpoint.h"

namespace mpq::harness {

namespace {
constexpr StreamId kQuicDataStream{3};
constexpr std::uint32_t kTcpAppPattern = 7;
}  // namespace

std::string ToString(Protocol protocol) {
  switch (protocol) {
    case Protocol::kTcp:
      return "TCP";
    case Protocol::kQuic:
      return "QUIC";
    case Protocol::kMptcp:
      return "MPTCP";
    case Protocol::kMpquic:
      return "MPQUIC";
  }
  return "?";
}

bool IsMultipath(Protocol protocol) {
  return protocol == Protocol::kMptcp || protocol == Protocol::kMpquic;
}

bool IsQuicFamily(Protocol protocol) {
  return protocol == Protocol::kQuic || protocol == Protocol::kMpquic;
}

double ExperimentalAggregationBenefit(double multipath_goodput,
                                      double single_path0_goodput,
                                      double single_path1_goodput) {
  const double g_max = std::max(single_path0_goodput, single_path1_goodput);
  const double g_sum = single_path0_goodput + single_path1_goodput;
  if (g_max <= 0.0) return 0.0;
  if (multipath_goodput >= g_max) {
    const double denom = g_sum - g_max;
    if (denom <= 0.0) return 0.0;
    return (multipath_goodput - g_max) / denom;
  }
  return (multipath_goodput - g_max) / g_max;
}

namespace {

std::array<sim::PathParams, 2> OrientPaths(
    const std::array<sim::PathParams, 2>& paths, int initial_path) {
  if (initial_path == 0) return paths;
  return {paths[1], paths[0]};
}

TransferResult FinishResult(bool completed, TimePoint finish_time,
                            ByteCount bytes, ByteCount target,
                            TimePoint time_limit, std::uint64_t errors) {
  TransferResult result;
  result.completed = completed;
  result.bytes_received = bytes;
  result.data_integrity_errors = errors;
  result.completion_time = completed ? finish_time : time_limit;
  const double seconds =
      DurationToSeconds(completed ? finish_time : time_limit);
  const double payload =
      static_cast<double>(completed ? target : bytes) * 8.0;
  result.goodput_mbps = seconds > 0.0 ? payload / seconds / 1e6 : 0.0;
  return result;
}

TransferResult RunQuicTransfer(bool multipath,
                               const std::array<sim::PathParams, 2>& paths,
                               const TransferOptions& options) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(options.seed ^ 0x517E0FF));
  auto topo = sim::BuildTwoPathTopology(net, paths);

  quic::ConnectionConfig config;
  config.multipath = multipath;
  config.congestion =
      multipath ? options.multipath_congestion : cc::Algorithm::kCubic;
  config.scheduler = options.quic_scheduler;
  config.window_update_on_all_paths = options.quic_window_update_on_all_paths;
  config.send_paths_frame = options.quic_send_paths_frame;
  config.pacing = options.quic_pacing;

  // Observability sinks. Declared before the endpoints so the tracer
  // outlives every connection holding a pointer to it; the mux stays
  // empty (and no tracer is attached) when neither output is requested.
  std::ofstream qlog_out;
  std::unique_ptr<obs::QlogTracer> qlog;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::MetricsTracer> metrics;
  obs::TracerMux mux;
  if (!options.qlog_path.empty()) {
    qlog_out.open(options.qlog_path, std::ios::trunc);
    if (qlog_out.is_open()) {
      qlog = std::make_unique<obs::QlogTracer>(
          qlog_out, options.metrics_label.empty() ? "mpq-transfer"
                                                  : options.metrics_label);
      mux.Add(qlog.get());
    } else {
      std::fprintf(stderr, "warning: cannot open qlog output %s\n",
                   options.qlog_path.c_str());
    }
  }
  if (!options.metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsTracer>(registry);
    mux.Add(metrics.get());
  }
  obs::TracerMux* tracer = mux.size() > 0 ? &mux : nullptr;

  std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                          topo.server_addr.end());
  quic::ServerEndpoint server(sim, net, server_locals, config,
                              options.seed * 2 + 1);
  // The server connection sends the payload, so it is the interesting
  // vantage point: scheduler decisions, losses and cwnd all live there.
  server.SetAcceptHandler([tracer](quic::Connection& conn) {
    if (tracer != nullptr) conn.SetTracer(tracer);
    auto request = std::make_shared<std::string>();
    conn.SetStreamDataHandler(
        [&conn, request](StreamId id, ByteCount,
                         std::span<const std::uint8_t> data, bool fin) {
          request->append(data.begin(), data.end());
          if (fin && id == kQuicDataStream) {
            const ByteCount size{std::stoull(request->substr(4))};
            conn.SendOnStream(kQuicDataStream,
                              std::make_unique<PatternSource>(
                                  kQuicDataStream.value(), size));
          }
        });
  });

  std::vector<sim::Address> client_locals;
  client_locals.push_back(topo.client_addr[0]);
  if (multipath) client_locals.push_back(topo.client_addr[1]);
  quic::ClientEndpoint client(sim, net, client_locals, config,
                              options.seed * 2 + 2);

  ByteCount received{};
  std::uint64_t errors = 0;
  bool finished = false;
  TimePoint finish_time = 0;
  client.connection().SetStreamDataHandler(
      [&](StreamId, ByteCount offset, std::span<const std::uint8_t> data,
          bool fin) {
        errors +=
            CountPatternMismatches(kQuicDataStream.value(), offset, data);
        received += data.size();
        if (fin) {
          finished = true;
          finish_time = sim.now();
        }
      });
  client.connection().SetEstablishedHandler([&] {
    const std::string request =
        "GET " + std::to_string(options.transfer_size.value());
    client.connection().SendOnStream(
        kQuicDataStream,
        std::make_unique<BufferSource>(
            std::vector<std::uint8_t>(request.begin(), request.end())));
  });
  client.Connect(topo.server_addr[0]);
  while (!finished && sim.RunOne(options.time_limit)) {
  }
  const TransferResult result =
      FinishResult(finished, finish_time, received, options.transfer_size,
                   options.time_limit, errors);

  if (metrics != nullptr) {
    // Build the row outside the lock; the metrics file is the one output
    // shared between parallel sweep workers, so the append (open, write
    // one line, close) is serialised by a process-wide mutex.
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("label").String(options.metrics_label);
    writer.Key("protocol").String(multipath ? "MPQUIC" : "QUIC");
    writer.Key("seed").UInt(options.seed);
    writer.Key("completed").Bool(result.completed);
    writer.Key("time_s").Double(DurationToSeconds(result.completion_time));
    writer.Key("goodput_mbps").Double(result.goodput_mbps);
    writer.Key("metrics");
    registry.WriteJson(writer);
    writer.EndObject();

    static std::mutex metrics_file_mutex;
    const std::lock_guard<std::mutex> lock(metrics_file_mutex);
    std::ofstream out(options.metrics_path, std::ios::app);
    if (out.is_open()) {
      out << writer.str() << '\n';
    } else {
      std::fprintf(stderr, "warning: cannot open metrics output %s\n",
                   options.metrics_path.c_str());
    }
  }
  return result;
}

TransferResult RunTcpTransfer(bool multipath,
                              const std::array<sim::PathParams, 2>& paths,
                              const TransferOptions& options) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(options.seed ^ 0x7C9D));
  // The TCP model's own header is part of the datagram; only IP remains.
  std::array<sim::PathParams, 2> tcp_paths = paths;
  for (auto& path : tcp_paths) path.per_packet_overhead = ByteCount{20};
  auto topo = sim::BuildTwoPathTopology(net, tcp_paths);

  tcp::TcpConfig config;
  config.multipath = multipath;
  config.congestion =
      multipath ? options.multipath_congestion : cc::Algorithm::kCubic;
  config.max_sack_blocks = options.tcp_sack_blocks;
  config.enable_orp = options.tcp_orp;
  config.use_tls = options.tcp_use_tls;
  config.lost_retransmission_needs_rto =
      options.tcp_lost_retransmission_needs_rto;

  std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                          topo.server_addr.end());
  tcp::TcpServerEndpoint server(sim, net, server_locals, config,
                                options.seed * 2 + 1);
  server.SetAcceptHandler([](tcp::TcpConnection& conn) {
    auto request = std::make_shared<std::string>();
    conn.SetAppDataHandler(
        [&conn, request](ByteCount, std::span<const std::uint8_t> data,
                         bool) {
          request->append(data.begin(), data.end());
          if (!request->empty() && request->back() == '\n') {
            const ByteCount size{std::stoull(request->substr(4))};
            request->clear();
            conn.SendAppData(
                std::make_unique<PatternSource>(kTcpAppPattern, size));
          }
        });
  });

  std::vector<sim::Address> client_locals;
  std::vector<sim::Address> remotes;
  client_locals.push_back(topo.client_addr[0]);
  remotes.push_back(topo.server_addr[0]);
  if (multipath) {
    client_locals.push_back(topo.client_addr[1]);
    remotes.push_back(topo.server_addr[1]);
  }
  tcp::TcpClientEndpoint client(sim, net, client_locals, config,
                                options.seed * 2 + 2);

  ByteCount received{};
  std::uint64_t errors = 0;
  bool finished = false;
  TimePoint finish_time = 0;
  client.connection().SetAppDataHandler(
      [&](ByteCount offset, std::span<const std::uint8_t> data, bool eof) {
        errors += CountPatternMismatches(kTcpAppPattern, offset, data);
        received += data.size();
        if (eof) {
          finished = true;
          finish_time = sim.now();
        }
      });
  client.connection().SetSecureEstablishedHandler([&] {
    const std::string request =
        "GET " + std::to_string(options.transfer_size.value()) + "\n";
    client.connection().SendAppData(std::make_unique<BufferSource>(
        std::vector<std::uint8_t>(request.begin(), request.end())));
  });
  client.Connect(remotes);
  while (!finished && sim.RunOne(options.time_limit)) {
  }
  return FinishResult(finished, finish_time, received, options.transfer_size,
                      options.time_limit, errors);
}

}  // namespace

TransferResult RunTransfer(Protocol protocol,
                           const std::array<sim::PathParams, 2>& paths,
                           const TransferOptions& options) {
  const auto oriented = OrientPaths(paths, options.initial_path);
  if (IsQuicFamily(protocol)) {
    return RunQuicTransfer(IsMultipath(protocol), oriented, options);
  }
  return RunTcpTransfer(IsMultipath(protocol), oriented, options);
}

TransferResult MedianTransfer(Protocol protocol,
                              const std::array<sim::PathParams, 2>& paths,
                              TransferOptions options, int repetitions) {
  std::vector<TransferResult> results;
  results.reserve(repetitions);
  const std::uint64_t base_seed = options.seed;
  for (int rep = 0; rep < repetitions; ++rep) {
    options.seed = base_seed + 7919ULL * static_cast<std::uint64_t>(rep);
    results.push_back(RunTransfer(protocol, paths, options));
  }
  return MedianResult(std::move(results));
}

TransferResult MedianResult(std::vector<TransferResult> results) {
  std::sort(results.begin(), results.end(),
            [](const TransferResult& a, const TransferResult& b) {
              if (a.completed != b.completed) return a.completed;
              return a.completion_time < b.completion_time;
            });
  return results[results.size() / 2];
}

// ---------------------------------------------------------------------------
// Handover (Fig. 11)

namespace {

std::array<sim::PathParams, 2> HandoverPaths(const HandoverOptions& options) {
  std::array<sim::PathParams, 2> paths;
  for (auto& path : paths) {
    path.capacity_mbps = options.capacity_mbps;
    path.max_queue_delay = 50 * kMillisecond;
    path.random_loss_rate = 0.0;
  }
  paths[0].rtt = options.initial_path_rtt;
  paths[1].rtt = options.second_path_rtt;
  return paths;
}

/// The fault schedule a handover run injects: the caller's, or (when
/// empty) the paper's single failure — path 0 turns completely lossy at
/// failure_time. Expressed as a kLossRate fault rather than kDown so the
/// link still serializes and then eats packets, exactly like the
/// original hand-scheduled SetRandomLossRate(1.0) — the Fig. 11 series
/// is byte-identical either way the schedule is supplied.
sim::FaultSchedule HandoverFaults(const HandoverOptions& options) {
  if (!options.faults.empty()) return options.faults;
  sim::PathFault failure;
  failure.time = options.failure_time;
  failure.path = 0;
  failure.kind = sim::LinkFault::Kind::kLossRate;
  failure.loss_rate = 1.0;
  return {failure};
}

}  // namespace

std::vector<HandoverSample> RunQuicHandover(const HandoverOptions& options) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(options.seed ^ 0xFA110));
  auto topo = sim::BuildTwoPathTopology(net, HandoverPaths(options));

  quic::ConnectionConfig config;
  if (options.single_path_migration) {
    // §1: "QUIC connection migration allows moving a flow from one
    // address to another. This is a form of hard handover."
    config.multipath = false;
    config.congestion = cc::Algorithm::kCubic;
    config.migrate_on_path_failure = true;
  } else {
    config.multipath = true;
    config.congestion = cc::Algorithm::kOlia;
    config.scheduler = options.scheduler;
  }
  config.send_paths_frame = options.send_paths_frame;

  std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                          topo.server_addr.end());
  quic::ServerEndpoint server(sim, net, server_locals, config,
                              options.seed * 2 + 1);
  const ByteCount response_size = options.response_size;
  server.SetAcceptHandler([response_size](quic::Connection& conn) {
    conn.SetStreamDataHandler(
        [&conn, response_size](StreamId id, ByteCount,
                               std::span<const std::uint8_t>, bool fin) {
          if (fin) {
            conn.SendOnStream(id, std::make_unique<PatternSource>(
                                      id, response_size));
          }
        });
  });

  std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                          topo.client_addr.end());
  quic::ClientEndpoint client(sim, net, client_locals, config,
                              options.seed * 2 + 2);

  // Observability sinks, attached to the client connection (the vantage
  // that measures response delay). Same lifetime discipline as
  // RunQuicTransfer: sinks outlive the connection, empty mux = no tracer.
  std::ofstream qlog_out;
  std::unique_ptr<obs::QlogTracer> qlog;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::MetricsTracer> metrics;
  obs::TracerMux mux;
  if (!options.qlog_path.empty()) {
    qlog_out.open(options.qlog_path, std::ios::trunc);
    if (qlog_out.is_open()) {
      qlog = std::make_unique<obs::QlogTracer>(qlog_out,
                                               options.metrics_label);
      mux.Add(qlog.get());
    } else {
      std::fprintf(stderr, "warning: cannot open qlog output %s\n",
                   options.qlog_path.c_str());
    }
  }
  if (!options.metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsTracer>(registry);
    mux.Add(metrics.get());
  }
  if (mux.size() > 0) client.connection().SetTracer(&mux);

  std::vector<HandoverSample> samples;
  std::vector<StreamId> request_stream_of;  // sample index -> stream id
  client.connection().SetStreamDataHandler(
      [&](StreamId id, ByteCount, std::span<const std::uint8_t>, bool fin) {
        if (!fin) return;
        for (std::size_t i = 0; i < request_stream_of.size(); ++i) {
          if (request_stream_of[i] == id && !samples[i].answered) {
            samples[i].answered = true;
            samples[i].response_delay = sim.now() - samples[i].sent_time;
            break;
          }
        }
      });

  StreamId next_stream{5};  // stream 3 reserved for file transfers
  std::function<void()> send_request = [&] {
    if (sim.now() > options.end_time) return;
    const StreamId id = next_stream;
    next_stream += 2;
    samples.push_back({sim.now(), 0, false});
    request_stream_of.push_back(id);
    client.connection().SendOnStream(
        id, std::make_unique<PatternSource>(id, options.request_size));
    sim.Schedule(options.request_interval, send_request);
  };
  client.connection().SetEstablishedHandler([&] { send_request(); });
  client.Connect(topo.server_addr[0]);

  sim::SchedulePathFaults(sim, topo, HandoverFaults(options));
  sim.Run(options.end_time + 10 * kSecond);

  if (metrics != nullptr) {
    std::size_t answered = 0;
    for (const HandoverSample& sample : samples) {
      if (sample.answered) ++answered;
    }
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("label").String(options.metrics_label);
    writer.Key("protocol")
        .String(options.single_path_migration ? "QUIC-migration" : "MPQUIC");
    writer.Key("seed").UInt(options.seed);
    writer.Key("requests").UInt(samples.size());
    writer.Key("answered").UInt(answered);
    writer.Key("metrics");
    registry.WriteJson(writer);
    writer.EndObject();

    static std::mutex handover_metrics_mutex;
    const std::lock_guard<std::mutex> lock(handover_metrics_mutex);
    std::ofstream out(options.metrics_path, std::ios::app);
    if (out.is_open()) {
      out << writer.str() << '\n';
    } else {
      std::fprintf(stderr, "warning: cannot open metrics output %s\n",
                   options.metrics_path.c_str());
    }
  }
  return samples;
}

std::vector<HandoverSample> RunMptcpHandover(const HandoverOptions& options) {
  sim::Simulator sim;
  sim::Network net(sim, Rng(options.seed ^ 0xFA111));
  auto paths = HandoverPaths(options);
  for (auto& path : paths) path.per_packet_overhead = ByteCount{20};
  auto topo = sim::BuildTwoPathTopology(net, paths);

  tcp::TcpConfig config;
  config.multipath = true;
  config.congestion = cc::Algorithm::kOlia;
  config.use_tls = true;

  std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                          topo.server_addr.end());
  tcp::TcpServerEndpoint server(sim, net, server_locals, config,
                                options.seed * 2 + 1);
  // Echo server: one response per full request_size bytes received.
  const ByteCount request_size = options.request_size;
  const ByteCount response_size = options.response_size;
  server.SetAcceptHandler([request_size, response_size](
                              tcp::TcpConnection& conn) {
    auto pending = std::make_shared<ByteCount>(0);
    conn.SetAppDataHandler([&conn, pending, request_size, response_size](
                               ByteCount, std::span<const std::uint8_t> data,
                               bool) {
      *pending += data.size();
      while (*pending >= request_size) {
        *pending -= request_size;
        conn.SendAppData(std::make_unique<PatternSource>(9, response_size),
                         /*finish=*/false);
      }
    });
  });

  std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                          topo.client_addr.end());
  tcp::TcpClientEndpoint client(sim, net, client_locals, config,
                                options.seed * 2 + 2);

  std::vector<HandoverSample> samples;
  ByteCount response_bytes{};
  client.connection().SetAppDataHandler(
      [&](ByteCount, std::span<const std::uint8_t> data, bool) {
        response_bytes += data.size();
        // Response i completes when (i+1)*response_size bytes arrived.
        const std::size_t answered =
            static_cast<std::size_t>(response_bytes / options.response_size);
        for (std::size_t i = 0; i < samples.size() && i < answered; ++i) {
          if (!samples[i].answered) {
            samples[i].answered = true;
            samples[i].response_delay = sim.now() - samples[i].sent_time;
          }
        }
      });

  std::function<void()> send_request = [&] {
    if (sim.now() > options.end_time) return;
    samples.push_back({sim.now(), 0, false});
    client.connection().SendAppData(
        std::make_unique<PatternSource>(8, options.request_size),
        /*finish=*/false);
    sim.Schedule(options.request_interval, send_request);
  };
  client.connection().SetSecureEstablishedHandler([&] { send_request(); });
  client.Connect({topo.server_addr[0], topo.server_addr[1]});

  sim::SchedulePathFaults(sim, topo, HandoverFaults(options));
  sim.Run(options.end_time + 10 * kSecond);
  return samples;
}

}  // namespace mpq::harness
