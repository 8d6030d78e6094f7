// Loss recovery, per path: the retransmission/loss-probe timers, ACK
// processing, RTO accounting and the frame-level requeue of lost packets
// (§3: a frame from a lost packet may be retransmitted on ANY path —
// that flexibility is exactly why requeueing is delegated outward rather
// than re-sent here).
//
// The layer drives the passive per-path state machines (quic/path.h) and
// owns their timers; everything that involves streams, the control queue
// or path lifecycle goes through RecoveryDelegate. By design this file
// must not include quic/streams.h or quic/connection.h — the mpq-layering
// lint rule enforces it — which is what keeps alternative recovery
// designs swappable (the Packet Number Space Debate follow-up compares
// exactly such variants).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "quic/path.h"
#include "quic/stats.h"
#include "quic/trace.h"
#include "quic/wire.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace mpq::quic {

/// Everything loss recovery needs from the rest of the connection,
/// expressed without stream or connection types so the recovery layer
/// stays below both.
class RecoveryDelegate {
 public:
  virtual ~RecoveryDelegate() = default;

  /// A STREAM frame range was lost — re-queue it on its send stream.
  virtual void OnStreamFrameLost(StreamId stream, ByteCount offset,
                                 ByteCount length, bool fin) = 0;
  /// A WINDOW_UPDATE was lost — re-advertise (values are monotonic, the
  /// delegate may freshen the limit before fanning it out per §3).
  virtual void RequeueWindowUpdate(const WindowUpdateFrame& frame) = 0;
  /// A PATHS frame was lost — enqueue a fresh snapshot.
  virtual void RequeuePathsSnapshot() = 0;
  /// Any other reliable control frame (ADD/REMOVE_ADDRESS, RST_STREAM,
  /// handshake cleartext) — re-enqueue it as-is on the control queue.
  virtual void RequeueControlFrame(Frame frame) = 0;
  /// An RTO marked the path potentially failed (§4.3). Returns true if
  /// recovery should start probing the path (the delegate may instead
  /// migrate it, in which case probing is pointless).
  virtual bool OnPathPotentiallyFailed(PathId path) = 0;
  /// An ACK brought a potentially-failed path back.
  virtual void OnPathRecovered(PathId path) = 0;
  /// Send a tracked PING on the (potentially failed) path.
  virtual void SendProbePing(PathId path) = 0;
  /// Kick the send loop (data freed by ACKs / requeued by losses).
  virtual void RequestSend() = 0;
  /// MPQ_AUDIT hook: re-validate connection invariants after a recovery
  /// timer event (no-op outside audit builds).
  virtual void RunAudit() = 0;
};

class RecoveryManager {
 public:
  RecoveryManager(sim::Simulator& sim, ConnectionStats& stats,
                  Duration failed_path_probe_interval, Duration max_rto,
                  RecoveryDelegate& delegate);

  void SetTracer(ConnectionTracer* tracer) { tracer_ = tracer; }

  /// Adopt a path: create its (unarmed) retransmission and probe timers.
  /// Paths are never unregistered — they live as long as the connection.
  void RegisterPath(Path& path);

  /// Process an ACK frame for `path`'s packet-number space: RTT/CC
  /// updates, loss detection, probe bookkeeping, requeue of losses.
  void OnAckReceived(Path& path, const AckFrame& ack);

  /// A retransmittable packet went out on `path` — re-anchor its timer.
  void OnPacketTracked(Path& path);

  /// Feed every retransmittable frame of `lost` back for retransmission
  /// via the delegate. `path` labels the tracer events only — the frames
  /// may go out on any path.
  void RequeueLostFrames(PathId path, const std::vector<SentPacket>& lost);

  /// Path migrated: its in-flight state was written off, stop its timers.
  void OnPathMigrated(PathId id);

  /// Connection closed: stop every timer, ignore late events.
  void OnConnectionClosed();

  /// Scheduler-probe bookkeeping (ping-first ablation): at most one
  /// outstanding tracked PING per path.
  bool ping_probe_outstanding(PathId id) const;
  void set_ping_probe_outstanding(PathId id, bool outstanding);

 private:
  struct PathRecovery {
    Path* path = nullptr;
    std::unique_ptr<sim::Timer> retx_timer;   // loss-time + RTO, combined
    std::unique_ptr<sim::Timer> probe_timer;  // potentially-failed probing
    bool ping_probe_outstanding = false;
  };

  void OnRetxTimer(PathRecovery& rec);
  void OnProbeTimer(PathRecovery& rec);
  void RearmRetxTimer(PathRecovery& rec);

  sim::Simulator& sim_;
  ConnectionStats& stats_;
  Duration probe_interval_;
  Duration max_rto_;
  RecoveryDelegate& delegate_;
  ConnectionTracer* tracer_ = nullptr;
  bool closed_ = false;
  std::map<PathId, PathRecovery> paths_;
};

}  // namespace mpq::quic
