// Connection observability (a qlog-style event hook): the Connection
// reports packet, frame, scheduler, loss-recovery, flow-control,
// handshake and path-state events to an attached tracer. Used by the
// diagnostic benches (congestion-window evolution across paths), the
// structured tracers in src/obs/ (NDJSON qlog writer, metrics registry)
// and available to library users for debugging — real QUIC stacks grew
// the same facility (qlog) for the same reason.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "quic/wire.h"

namespace mpq::quic {

/// Observer interface. Default implementations ignore everything, so a
/// tracer only overrides what it cares about. Callbacks fire synchronously
/// on the simulated-event path; implementations must be cheap. The
/// Connection guards every emission with a single null check, so an
/// unattached tracer costs nothing on the datapath.
class ConnectionTracer {
 public:
  virtual ~ConnectionTracer() = default;

  // -- packet level -------------------------------------------------------
  virtual void OnPacketSent(TimePoint /*now*/, PathId /*path*/,
                            PacketNumber /*pn*/, ByteCount /*bytes*/,
                            bool /*retransmittable*/) {}
  virtual void OnPacketReceived(TimePoint /*now*/, PathId /*path*/,
                                PacketNumber /*pn*/, ByteCount /*bytes*/) {}
  virtual void OnPacketLost(TimePoint /*now*/, PathId /*path*/,
                            PacketNumber /*pn*/) {}
  /// A sent packet reached a terminal state: `stage` is "acked" or
  /// "lost", `since_sent` the simulated time from transmission to the
  /// terminal event: the send→acked/lost leg of a packet's lifecycle, in
  /// simulated time. Host time spent assembling and sealing it is
  /// measured from outside the library (perfbench --trace 1).
  virtual void OnPacketLifecycle(TimePoint /*now*/, PathId /*path*/,
                                 PacketNumber /*pn*/, const char* /*stage*/,
                                 Duration /*since_sent*/) {}

  // -- frame level --------------------------------------------------------
  /// Fired once per frame assembled into an outgoing packet, before the
  /// packet is sealed and transmitted.
  virtual void OnFrameSent(TimePoint /*now*/, PathId /*path*/,
                           const Frame& /*frame*/) {}
  /// Fired once per frame decoded from an incoming packet, before the
  /// frame is processed.
  virtual void OnFrameReceived(TimePoint /*now*/, PathId /*path*/,
                               const Frame& /*frame*/) {}

  // -- scheduler ----------------------------------------------------------
  /// One data-packet scheduling decision. `reason` is the scheduler's
  /// explanation ("lowest-rtt", "rtt-unknown-initial", "round-robin",
  /// "redundant", "ping-first", or "duplicate" for the §3 copy sent onto
  /// an unknown-RTT path). `elapsed_ns` is the wall-clock time the
  /// decision took (0 when not measured — duplication decisions ride on
  /// the primary decision's measurement).
  virtual void OnSchedulerDecision(TimePoint /*now*/, PathId /*chosen*/,
                                   const char* /*reason*/,
                                   std::uint64_t /*elapsed_ns*/) {}

  // -- loss recovery ------------------------------------------------------
  /// Fired whenever an ACK updates a path: current cwnd, bytes in flight
  /// and smoothed RTT.
  virtual void OnPathSample(TimePoint /*now*/, PathId /*path*/,
                            ByteCount /*cwnd*/, ByteCount /*in_flight*/,
                            Duration /*srtt*/) {}
  /// Retransmission timeout fired on a path; `consecutive` is the path's
  /// current RTO backoff count.
  virtual void OnRto(TimePoint /*now*/, PathId /*path*/,
                     int /*consecutive*/) {}
  /// A retransmittable frame from a lost packet re-entered a send queue
  /// (it may go out on any path — MPQUIC frame-level retransmission, §3).
  virtual void OnFrameRetransmitQueued(TimePoint /*now*/, PathId /*path*/,
                                       const Frame& /*frame*/) {}

  // -- flow control -------------------------------------------------------
  /// Sending stalled on the peer's flow-control window (stream 0 = the
  /// connection-level window). Fired once per blocked episode.
  virtual void OnFlowControlBlocked(TimePoint /*now*/,
                                    StreamId /*stream*/) {}

  // -- handshake / path lifecycle -----------------------------------------
  /// Handshake milestones: "chlo-sent", "chlo-received", "shlo-sent",
  /// "shlo-received", "established".
  virtual void OnHandshakeEvent(TimePoint /*now*/,
                                const char* /*milestone*/) {}
  /// Path lifecycle: "created", "potentially-failed", "recovered",
  /// "migrated".
  virtual void OnPathStateChange(TimePoint /*now*/, PathId /*path*/,
                                 const char* /*state*/) {}

  // -- simulated environment ----------------------------------------------
  /// A scheduled fault was applied to a simulated network path (the
  /// fault-injection subsystem, docs/ROBUSTNESS.md). Emitted by the
  /// harness — the connection cannot see the link — so `path` is the
  /// topology path index, not a quic PathId. `kind` is "down", "up",
  /// "loss", "reconfigure" or "burst-loss"; `value` carries the loss
  /// rate (loss / burst-loss) or the new capacity in Mbps (reconfigure),
  /// 0 otherwise.
  virtual void OnLinkFault(TimePoint /*now*/, int /*path*/,
                           const char* /*kind*/, double /*value*/) {}
};

/// Collects per-path time series of (time, cwnd, srtt) — the data behind
/// a congestion-evolution plot — plus the loss events as their own record
/// type.
class TimeSeriesTracer final : public ConnectionTracer {
 public:
  struct Sample {
    TimePoint time = 0;
    PathId path{};
    ByteCount cwnd{};
    ByteCount in_flight{};
    Duration srtt = 0;
  };

  struct LossRecord {
    TimePoint time = 0;
    PathId path{};
    PacketNumber pn{};
  };

  void OnPathSample(TimePoint now, PathId path, ByteCount cwnd,
                    ByteCount in_flight, Duration srtt) override {
    samples_.push_back({now, path, cwnd, in_flight, srtt});
  }
  void OnPacketLost(TimePoint now, PathId path, PacketNumber pn) override {
    losses_.push_back({now, path, pn});
  }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<LossRecord>& losses() const { return losses_; }

 private:
  std::vector<Sample> samples_;
  std::vector<LossRecord> losses_;
};

/// Counts events — handy in tests for asserting behaviour without poking
/// at connection internals.
class CountingTracer final : public ConnectionTracer {
 public:
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t lifecycle_events = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t scheduler_decisions = 0;
  std::uint64_t path_samples = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t frames_requeued = 0;
  std::uint64_t flow_blocked_events = 0;
  std::uint64_t handshake_events = 0;
  std::uint64_t link_faults = 0;
  std::map<PathId, std::uint64_t> packets_sent_by_path;
  std::map<PathId, std::uint64_t> packets_lost_by_path;
  std::map<PathId, std::uint64_t> bytes_sent_by_path;
  std::vector<std::string> state_changes;  // "path:state"
  std::vector<std::string> fault_events;   // "path:kind"

  void OnPacketSent(TimePoint, PathId path, PacketNumber, ByteCount bytes,
                    bool) override {
    ++packets_sent;
    ++packets_sent_by_path[path];
    bytes_sent_by_path[path] += bytes.value();
  }
  void OnPacketReceived(TimePoint, PathId, PacketNumber,
                        ByteCount) override {
    ++packets_received;
  }
  void OnPacketLost(TimePoint, PathId path, PacketNumber) override {
    ++packets_lost;
    ++packets_lost_by_path[path];
  }
  void OnPacketLifecycle(TimePoint, PathId, PacketNumber, const char*,
                         Duration) override {
    ++lifecycle_events;
  }
  void OnFrameSent(TimePoint, PathId, const Frame&) override {
    ++frames_sent;
  }
  void OnFrameReceived(TimePoint, PathId, const Frame&) override {
    ++frames_received;
  }
  void OnSchedulerDecision(TimePoint, PathId, const char*,
                           std::uint64_t) override {
    ++scheduler_decisions;
  }
  void OnPathSample(TimePoint, PathId, ByteCount, ByteCount,
                    Duration) override {
    ++path_samples;
  }
  void OnRto(TimePoint, PathId, int) override { ++rto_events; }
  void OnFrameRetransmitQueued(TimePoint, PathId, const Frame&) override {
    ++frames_requeued;
  }
  void OnFlowControlBlocked(TimePoint, StreamId) override {
    ++flow_blocked_events;
  }
  void OnHandshakeEvent(TimePoint, const char*) override {
    ++handshake_events;
  }
  void OnPathStateChange(TimePoint, PathId path,
                         const char* state) override {
    state_changes.push_back(std::to_string(path.value()) + ":" + state);
  }
  void OnLinkFault(TimePoint, int path, const char* kind, double) override {
    ++link_faults;
    fault_events.push_back(std::to_string(path) + ":" + kind);
  }
};

}  // namespace mpq::quic
