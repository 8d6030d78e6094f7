// One path of an MPQUIC connection (§3): its own packet-number space in
// each direction, its own RTT estimator, congestion controller, loss
// detection state and "potentially failed" flag (§4.3). The Path is a
// passive state machine — the Connection drives it and owns the timers.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cc/congestion.h"
#include "common/types.h"
#include "quic/ack_tracker.h"
#include "quic/rtt.h"
#include "quic/wire.h"
#include "sim/net.h"

namespace mpq::quic {

struct SentPacket {
  PacketNumber pn{};
  TimePoint sent_time = 0;
  ByteCount bytes{};  // full wire size, charged to the congestion window
  std::vector<Frame> frames;  // retransmittable frames only
};

/// The retransmittable packets in flight on one path, indexed by
/// `pn - base`. Packet numbers only grow, and ack-only packets are never
/// tracked, so the window [base, end) holds live records and holes; the
/// oldest live record is always at `base` (holes there are dropped at
/// once). The ring doubles when the window outgrows it. A slot keeps its
/// frame vector's capacity across reuse, and the vector of a record moved
/// out (a lost packet) comes back through Recycle, so tracking a packet
/// does not allocate once the ring is warm.
class SentPacketRing {
 public:
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  /// The oldest tracked packet. Precondition: !empty().
  const SentPacket& front() const { return slots_[head_]; }
  /// Lowest packet number in the window.
  PacketNumber base() const { return base_; }
  /// One past the newest packet number in the window.
  PacketNumber end() const { return base_ + PacketNumber{span_}; }

  /// The live record for `pn`, or nullptr.
  SentPacket* Find(PacketNumber pn) {
    if (pn < base_ || pn >= end()) return nullptr;
    SentPacket& slot = Slot(pn);
    return slot.pn == pn ? &slot : nullptr;
  }

  /// Track `pn` (above every packet number tracked before) and return its
  /// record: `frames` empty, capacity recycled.
  SentPacket& Insert(PacketNumber pn);

  /// Stop tracking the live record `pn`, moving it out to `out` if given
  /// (the slot's frame capacity then goes with it).
  void Erase(PacketNumber pn, SentPacket* out = nullptr);

  /// Move every live record out, oldest first, and empty the ring.
  void TakeAll(std::vector<SentPacket>& out);

  /// Give back the frame vector of a record moved out, for a slot whose
  /// own vector went with a record.
  void Recycle(std::vector<Frame>&& frames) {
    if (frames.capacity() == 0) return;
    frames.clear();
    spare_frames_.push_back(std::move(frames));
  }

  /// Visit the live records, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < span_; ++i) {
      const SentPacket& slot = slots_[(head_ + i) & (slots_.size() - 1)];
      if (slot.pn != 0) fn(slot);
    }
  }

 private:
  SentPacket& Slot(PacketNumber pn) {
    return slots_[(head_ + (pn - base_).value()) & (slots_.size() - 1)];
  }
  /// Re-lay the window from index 0 of a ring of `capacity` slots.
  void Grow(std::size_t capacity);

  /// Power-of-two sized; a slot with pn 0 is a hole (numbers start at 1).
  std::vector<SentPacket> slots_;
  std::size_t head_ = 0;   // slot of base_
  std::size_t span_ = 0;   // slots in the window
  std::size_t live_ = 0;   // live records in the window
  PacketNumber base_{};
  std::vector<std::vector<Frame>> spare_frames_;
};

class Path {
 public:
  Path(PathId id, sim::Address local, sim::Address remote,
       std::unique_ptr<cc::CongestionController> congestion)
      : id_(id),
        local_(local),
        remote_(remote),
        congestion_(std::move(congestion)) {}

  PathId id() const { return id_; }
  sim::Address local_address() const { return local_; }
  sim::Address remote_address() const { return remote_; }

  /// Receive-side address update (NAT rebinding, §3: "the presence of the
  /// Path ID also allows MPQUIC to use multiple flows when a remote
  /// address changes over a particular path" — path state is kept).
  void UpdateAddresses(sim::Address local, sim::Address remote) {
    local_ = local;
    remote_ = remote;
  }

  /// Sender-side hard migration (QUIC connection migration): move to a
  /// new address pair, write off everything in flight (returned for
  /// requeueing), and reset the measurements that belonged to the old
  /// network path. Packet-number spaces and keys survive.
  ///
  /// Migrate, DetectTimeThresholdLosses and OnRetransmissionTimeout
  /// return the lost packets in storage the path reuses: the result is
  /// valid until the next call of any of the three.
  const std::vector<SentPacket>& Migrate(
      sim::Address local, sim::Address remote,
      std::unique_ptr<cc::CongestionController> fresh_congestion,
      TimePoint now);

  // -- sending ----------------------------------------------------------
  PacketNumber AllocatePacketNumber() { return next_pn_++; }
  PacketNumber largest_sent() const { return next_pn_ - 1; }
  PacketNumber largest_acked() const { return largest_acked_; }
  /// The lowest packet number we still wait for: the oldest tracked
  /// packet, or the next one when nothing is tracked.
  PacketNumber least_unacked() const {
    return sent_.empty() ? next_pn_ : sent_.base();
  }
  /// An ACK reported ranges we no longer wait for: the next packet
  /// assembled for this path carries a STOP_WAITING (see OnAckReceived).
  bool stop_waiting_pending() const { return stop_waiting_pending_; }
  void set_stop_waiting_pending(bool pending) {
    stop_waiting_pending_ = pending;
  }

  /// Register a sent retransmittable packet (ack-only packets are neither
  /// tracked nor congestion-controlled, per QUIC). Returns the record's
  /// frame list, empty, for the caller to fill with the packet's
  /// retransmittable frames; it reuses a ring slot's capacity.
  std::vector<Frame>& OnPacketSent(PacketNumber pn, TimePoint sent_time,
                                   ByteCount bytes) {
    congestion_->OnPacketSent(sent_time, bytes);
    sent_since_ack_ = true;
    bytes_sent_ += bytes;
    SentPacket& packet = sent_.Insert(pn);
    packet.sent_time = sent_time;
    packet.bytes = bytes;
    return packet.frames;
  }

  /// What one ACK frame did. Owned by the path and reused across ACKs.
  struct AckResult {
    /// A newly acknowledged packet; its frames stay with the ring.
    struct Acked {
      PacketNumber pn{};
      TimePoint sent_time = 0;
    };
    std::vector<Acked> newly_acked;  // ascending within each ACK range
    std::vector<SentPacket> lost;
    bool acked_ping = false;  // a newly acked packet carried a PING
    bool was_new_largest = false;
  };

  /// Process an ACK frame for this path's PN space: RTT sampling, CC
  /// updates, packet-threshold and time-threshold loss detection. An ACK
  /// whose lowest of several ranges lies wholly below least_unacked()
  /// arms a STOP_WAITING. The result is valid until the next call.
  const AckResult& OnAckReceived(const AckFrame& ack, TimePoint now);

  /// Re-run time-threshold loss detection (called when the loss timer
  /// fires). Packets declared lost are removed and returned.
  const std::vector<SentPacket>& DetectTimeThresholdLosses(TimePoint now);

  /// Earliest deadline at which an unacked packet crosses the time
  /// threshold, or kTimeInfinite.
  TimePoint NextLossTime() const { return loss_time_; }

  /// RTO fired: collapse the window and hand back every in-flight frame
  /// for retransmission (on any path — MPQUIC flexibility, §3). Marks the
  /// path potentially failed if no ACK acknowledged anything after our
  /// last transmission (§4.3 / Linux MPTCP heuristic).
  const std::vector<SentPacket>& OnRetransmissionTimeout(TimePoint now);

  bool HasInFlight() const { return !sent_.empty(); }
  TimePoint OldestInFlightSentTime() const {
    return sent_.empty() ? kTimeInfinite : sent_.front().sent_time;
  }

  /// Current RTO duration with exponential backoff applied.
  Duration CurrentRto() const {
    return rtt_.Rto() << (rto_count_ > 6 ? 6 : rto_count_);
  }

  // -- receiving --------------------------------------------------------
  ReceivedPacketTracker& receiver() { return receiver_; }
  const ReceivedPacketTracker& receiver() const { return receiver_; }
  bool ack_pending() const { return ack_pending_; }
  void set_ack_pending(bool pending) { ack_pending_ = pending; }
  int unacked_retransmittable_count() const { return unacked_count_; }
  void NoteRetransmittableReceived() { ++unacked_count_; ack_pending_ = true; }
  void ClearAckPending() { ack_pending_ = false; unacked_count_ = 0; }

  // -- path quality / status --------------------------------------------
  RttEstimator& rtt() { return rtt_; }
  const RttEstimator& rtt() const { return rtt_; }
  cc::CongestionController& congestion() { return *congestion_; }
  const cc::CongestionController& congestion() const { return *congestion_; }

  bool potentially_failed() const { return potentially_failed_; }
  void set_potentially_failed(bool failed) { potentially_failed_ = failed; }
  /// Peer told us (via PATHS frame) that this path failed on its side.
  bool remote_reported_failed() const { return remote_failed_; }
  void set_remote_reported_failed(bool failed) { remote_failed_ = failed; }

  bool Usable() const { return !potentially_failed_ && !remote_failed_; }

  int rto_count() const { return rto_count_; }

  // -- statistics (PATHS frame + harness diagnostics) ---------------------
  ByteCount bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_declared_lost() const { return packets_lost_; }
  std::uint64_t packets_acked() const { return packets_acked_; }

 private:
  friend class Auditor;

  static constexpr PacketNumber kReorderingThreshold{3};

  Duration TimeThreshold() const {
    const Duration base =
        std::max(rtt_.smoothed(), rtt_.latest());
    return std::max<Duration>(base * 9 / 8, 1 * kMillisecond);
  }

  void DeclareLost(SentPacket& packet, TimePoint now,
                   std::vector<SentPacket>& out);
  /// Empty `lost`, handing its records' frame vectors back to the ring.
  void RecycleLost(std::vector<SentPacket>& lost);
  /// Declare tracked packets below largest_acked_ lost by the time
  /// threshold (and, if `packet_threshold`, the reordering threshold);
  /// re-derive loss_time_ from the survivors.
  void DetectLosses(TimePoint now, bool packet_threshold,
                    std::vector<SentPacket>& lost);

  PathId id_;
  sim::Address local_;
  sim::Address remote_;
  std::unique_ptr<cc::CongestionController> congestion_;
  RttEstimator rtt_;

  // Send state.
  PacketNumber next_pn_{1};
  PacketNumber largest_acked_{};
  TimePoint largest_acked_sent_time_ = 0;
  SentPacketRing sent_;
  AckResult ack_result_;
  std::vector<SentPacket> timer_lost_;  // see Migrate
  TimePoint loss_time_ = kTimeInfinite;
  /// A tracked packet went out after the last ACK that acknowledged
  /// something. An order, not a time comparison: a send clocked out by an
  /// ACK happens at that ACK's instant and still comes after it.
  bool sent_since_ack_ = false;
  bool stop_waiting_pending_ = false;
  int rto_count_ = 0;
  bool potentially_failed_ = false;
  bool remote_failed_ = false;

  // Receive state.
  ReceivedPacketTracker receiver_;
  bool ack_pending_ = false;
  int unacked_count_ = 0;

  // Statistics.
  ByteCount bytes_sent_{};
  std::uint64_t packets_lost_ = 0;
  std::uint64_t packets_acked_ = 0;
};

}  // namespace mpq::quic
