#include "quic/recovery.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "common/log.h"

namespace mpq::quic {

namespace {

/// Audits on scope exit, so timer handlers with early returns still get
/// checked on every path out (the recovery-layer analogue of AuditScope,
/// routed through the delegate to keep connection.h out of this layer).
class AuditOnExit {
 public:
  explicit AuditOnExit(RecoveryDelegate& delegate) : delegate_(delegate) {}
  ~AuditOnExit() { delegate_.RunAudit(); }

  AuditOnExit(const AuditOnExit&) = delete;
  AuditOnExit& operator=(const AuditOnExit&) = delete;

 private:
  RecoveryDelegate& delegate_;
};

}  // namespace

RecoveryManager::RecoveryManager(sim::Simulator& sim, ConnectionStats& stats,
                                 Duration failed_path_probe_interval,
                                 Duration max_rto,
                                 RecoveryDelegate& delegate)
    : sim_(sim),
      stats_(stats),
      probe_interval_(failed_path_probe_interval),
      max_rto_(max_rto),
      delegate_(delegate) {}

void RecoveryManager::RegisterPath(Path& path) {
  PathRecovery& rec = paths_[path.id()];
  rec.path = &path;
  PathRecovery* raw = &rec;
  rec.retx_timer =
      std::make_unique<sim::Timer>(sim_, [this, raw] { OnRetxTimer(*raw); });
  rec.probe_timer =
      std::make_unique<sim::Timer>(sim_, [this, raw] { OnProbeTimer(*raw); });
}

void RecoveryManager::OnAckReceived(Path& path, const AckFrame& ack) {
  // An ACK for a packet number this path never allocated is proof of a
  // broken or forged peer (optimistic ACK). Accepting it would drag
  // largest_acked past the send horizon, instantly declare every
  // in-flight packet lost via the packet-number reordering threshold,
  // and desync header packet-number encoding. Ignore the whole frame —
  // an honest peer never acknowledges the future.
  if (!ack.ranges.empty() && ack.LargestAcked() > path.largest_sent()) {
    ++stats_.invalid_acks_ignored;
    MPQ_WARN(sim_.now(), "recovery",
             "path %u ACK for unsent pn %llu (largest sent %llu) ignored",
             path.id().value(),
             static_cast<unsigned long long>(ack.LargestAcked().value()),
             static_cast<unsigned long long>(path.largest_sent().value()));
    return;
  }
  PathRecovery& rec = paths_.at(path.id());
  const bool was_failed = path.potentially_failed();
  const Path::AckResult& result = path.OnAckReceived(ack, sim_.now());
  if (tracer_ != nullptr) {
    for (const SentPacket& lost : result.lost) {
      tracer_->OnPacketLost(sim_.now(), ack.path_id, lost.pn);
    }
    tracer_->OnPathSample(sim_.now(), ack.path_id,
                          path.congestion().congestion_window(),
                          path.congestion().bytes_in_flight(),
                          path.rtt().smoothed());
  }
  if (tracer_ != nullptr) {
    for (const Path::AckResult::Acked& packet : result.newly_acked) {
      tracer_->OnPacketLifecycle(sim_.now(), ack.path_id, packet.pn, "acked",
                                 sim_.now() - packet.sent_time);
    }
  }
  if (result.acked_ping) rec.ping_probe_outstanding = false;
  if (was_failed && !path.potentially_failed()) {
    if (tracer_ != nullptr) {
      tracer_->OnPathStateChange(sim_.now(), ack.path_id, "recovered");
    }
    rec.probe_timer->Cancel();
    delegate_.OnPathRecovered(ack.path_id);
  }
  RequeueLostFrames(ack.path_id, result.lost);
  RearmRetxTimer(rec);
}

void RecoveryManager::OnPacketTracked(Path& path) {
  RearmRetxTimer(paths_.at(path.id()));
}

void RecoveryManager::RequeueLostFrames(
    PathId path, const std::vector<SentPacket>& lost) {
  // Only frames that are actually fed back for retransmission count
  // toward the retransmit stats — PINGs from lost packets are dropped,
  // not retransmitted.
  const auto count = [this](const Frame& frame) {
    ++stats_.frames_retransmitted;
    stats_.bytes_retransmitted += FrameWireSize(frame);
  };
  for (const SentPacket& packet : lost) {
    // Terminal lifecycle event for the lost packet, whether the loss was
    // ack-implied (OnAckReceived) or timer-driven (OnRetxTimer).
    if (tracer_ != nullptr) {
      tracer_->OnPacketLifecycle(sim_.now(), path, packet.pn, "lost",
                                 sim_.now() - packet.sent_time);
    }
    for (const Frame& frame : packet.frames) {
      if (tracer_ != nullptr) {
        tracer_->OnFrameRetransmitQueued(sim_.now(), path, frame);
      }
      std::visit(
          [&](const auto& f) {
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, StreamFrame>) {
              count(frame);
              delegate_.OnStreamFrameLost(f.stream_id, f.offset, f.length,
                                          f.fin);
            } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
              // Values are monotonic; resending the same limit is safe and
              // refreshing it is better (the delegate freshens).
              count(frame);
              delegate_.RequeueWindowUpdate(f);
            } else if constexpr (std::is_same_v<T, PathsFrame>) {
              count(frame);
              delegate_.RequeuePathsSnapshot();  // fresh snapshot
            } else if constexpr (std::is_same_v<T, AddAddressFrame> ||
                                 std::is_same_v<T, RemoveAddressFrame> ||
                                 std::is_same_v<T, HandshakeFrame> ||
                                 std::is_same_v<T, RstStreamFrame>) {
              // Reliable control frames go back on the control queue as
              // they are (it drains handshake cleartext ahead of stream
              // data; an RST_STREAM abort notice is itself reliable).
              count(frame);
              delegate_.RequeueControlFrame(f);
            }
            // PING / BLOCKED / CONNECTION_CLOSE: not worth retransmitting
            // (probe timers re-issue pings).
          },
          frame);
    }
  }
}

void RecoveryManager::RearmRetxTimer(PathRecovery& rec) {
  Path& path = *rec.path;
  TimePoint deadline = path.NextLossTime();
  if (path.HasInFlight()) {
    // Anchor the RTO on the oldest outstanding packet, not the last
    // transmission: periodic sends (e.g. the 1 Hz probe pings on a
    // potentially-failed path) would otherwise push the deadline back
    // forever once the backed-off RTO exceeds the send interval, and
    // stranded in-flight data would never be redeclared lost.
    // Cap the backed-off RTO: exponential backoff on an outage-inflated
    // srtt can otherwise push the next retransmission tens of seconds
    // past the moment the link heals (config.h documents the bound).
    const Duration rto =
        max_rto_ > 0 ? std::min(path.CurrentRto(), max_rto_)
                     : path.CurrentRto();
    const TimePoint rto_deadline = path.OldestInFlightSentTime() + rto;
    deadline = std::min(deadline, rto_deadline);
  }
  if (deadline == kTimeInfinite) {
    rec.retx_timer->Cancel();
  } else {
    rec.retx_timer->SetAt(deadline);
  }
}

void RecoveryManager::OnRetxTimer(PathRecovery& rec) {
  Path& path = *rec.path;
  if (closed_) return;
  AuditOnExit audit(delegate_);
  if (sim_.now() >= path.NextLossTime()) {
    RequeueLostFrames(path.id(), path.DetectTimeThresholdLosses(sim_.now()));
  } else if (path.HasInFlight()) {
    ++stats_.rto_events;
    const bool was_failed = path.potentially_failed();
    RequeueLostFrames(path.id(), path.OnRetransmissionTimeout(sim_.now()));
    if (tracer_ != nullptr) {
      tracer_->OnRto(sim_.now(), path.id(), path.rto_count());
    }
    if (!was_failed && path.potentially_failed()) {
      if (delegate_.OnPathPotentiallyFailed(path.id())) {
        rec.probe_timer->SetIn(probe_interval_);
      }
    }
  }
  RearmRetxTimer(rec);
  delegate_.RequestSend();
}

void RecoveryManager::OnProbeTimer(PathRecovery& rec) {
  if (closed_ || !rec.path->potentially_failed()) return;
  AuditOnExit audit(delegate_);
  delegate_.SendProbePing(rec.path->id());
  rec.probe_timer->SetIn(probe_interval_);
}

void RecoveryManager::OnPathMigrated(PathId id) {
  PathRecovery& rec = paths_.at(id);
  rec.retx_timer->Cancel();
  rec.probe_timer->Cancel();
}

void RecoveryManager::OnConnectionClosed() {
  closed_ = true;
  for (auto& [id, rec] : paths_) {
    rec.retx_timer->Cancel();
    rec.probe_timer->Cancel();
  }
}

bool RecoveryManager::ping_probe_outstanding(PathId id) const {
  return paths_.at(id).ping_probe_outstanding;
}

void RecoveryManager::set_ping_probe_outstanding(PathId id, bool outstanding) {
  paths_.at(id).ping_probe_outstanding = outstanding;
}

}  // namespace mpq::quic
