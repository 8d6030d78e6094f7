// One TCP subflow of the baseline stack: 3-way handshake, cumulative ACK
// + bounded SACK scoreboard, classic single-timer RTT estimation with
// Karn's algorithm, NewReno-style fast recovery, and RTO with exponential
// backoff. A single-path TCP connection is one subflow; MPTCP runs one
// subflow per path with DSN mappings to the connection-level stream.
//
// Behaviours deliberately modelled after what the paper measures against
// (Linux TCP / MPTCP v0.91, §4):
//   * RTT is sampled from at most one timed segment per RTT, and never
//     from a retransmitted one (Karn) — the "ambiguities linked to the
//     estimation of the round-trip-time" of §4.1;
//   * SACK carries at most 3 blocks; everything else must be rediscovered
//     through later acks or an RTO;
//   * a lost segment is retransmitted with the SAME subflow sequence on
//     the SAME subflow — the in-order-per-path constraint MPQUIC drops;
//   * an RTO without intervening activity marks the subflow potentially
//     failed (§4.3), like the Linux MPTCP active/backup heuristic.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "cc/congestion.h"
#include "common/types.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcpsim/segment.h"

namespace mpq::tcp {

/// RFC 6298 estimator fed by Karn-filtered samples.
class TcpRttEstimator {
 public:
  void AddSample(Duration rtt) {
    if (rtt <= 0) rtt = 1;
    if (!has_sample_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      has_sample_ = true;
      return;
    }
    const Duration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }
  bool has_sample() const { return has_sample_; }
  Duration smoothed() const { return srtt_; }
  Duration Rto() const {
    if (!has_sample_) return 1 * kSecond;  // RFC 6298 initial RTO
    return std::max<Duration>(srtt_ + std::max<Duration>(4 * rttvar_,
                                                         1 * kMillisecond),
                              kMinRto);
  }
  static constexpr Duration kMinRto = 200 * kMillisecond;  // Linux default

 private:
  bool has_sample_ = false;
  Duration srtt_ = 0;
  Duration rttvar_ = 0;
};

struct DsnRange {
  std::uint64_t start = 0;
  std::uint64_t length = 0;
};

class Subflow;

/// What a subflow needs from its owning connection.
class SubflowHost {
 public:
  virtual ~SubflowHost() = default;

  virtual void OnSubflowEstablished(Subflow& subflow) = 0;
  /// Subflow-in-order payload with its DSN (derived from seq when no DSS).
  virtual void OnSubflowDataDelivered(Subflow& subflow, std::uint64_t dsn,
                                      std::span<const std::uint8_t> data,
                                      bool data_fin) = 0;
  /// Connection-level fields observed on any segment from the peer.
  virtual void OnPeerWindow(std::uint64_t data_ack, std::uint64_t window) = 0;
  /// Ack processing freed congestion window: run the scheduler.
  virtual void OnSubflowCanSend() = 0;
  /// RTO fired; `outstanding` are the DSN ranges still unacked on this
  /// subflow — MPTCP reinjects them on other subflows (§4.3 handover).
  virtual void OnSubflowTimeout(Subflow& subflow,
                                std::vector<DsnRange> outstanding) = 0;
  /// Read connection-stream bytes for (re)transmission.
  virtual void ReadStream(std::uint64_t dsn,
                          std::span<std::uint8_t> out) = 0;
  /// Values for outgoing segments.
  virtual std::uint64_t AdvertisedWindow() = 0;
  virtual std::uint64_t ConnectionDataAck() = 0;
  /// Hand a fully built segment to the socket layer.
  virtual void EmitSegment(Subflow& subflow, TcpSegment&& segment) = 0;
};

struct SubflowConfig {
  ByteCount mss{1400};
  int max_sack_blocks = kMaxSackBlocks;
  bool multipath = false;  // carry DSS options on the wire
  Duration delayed_ack_timeout = 40 * kMillisecond;  // Linux-ish quickack
  /// Era-faithful default (Linux 4.1, pre-RACK): a retransmission that is
  /// itself lost cannot be detected through SACK — the sender stalls
  /// until the RTO. QUIC never has this blind spot because every
  /// transmission gets a fresh packet number (paper §2: retransmission
  /// ambiguity "affects round-trip-time estimation and loss recovery in
  /// TCP"). Set false for a modern (RACK-era) baseline.
  bool lost_retransmission_needs_rto = true;
};

class Subflow {
 public:
  Subflow(sim::Simulator& sim, SubflowHost& host, std::uint8_t id,
          std::uint64_t cid, sim::Address local, sim::Address remote,
          std::unique_ptr<cc::CongestionController> congestion,
          SubflowConfig config);

  Subflow(const Subflow&) = delete;
  Subflow& operator=(const Subflow&) = delete;

  // -- lifecycle ----------------------------------------------------------
  void Listen() { state_ = State::kListen; }
  /// Client side: send SYN (with MP_JOIN for secondary subflows).
  void ConnectActive(bool mp_join);
  bool established() const { return state_ == State::kEstablished; }

  void OnSegment(const TcpSegment& segment);

  // -- sending ------------------------------------------------------------
  /// Room for one more MSS under the congestion window?
  bool CanSendData(ByteCount bytes) const {
    return established() && congestion_->CanSend(bytes);
  }
  /// Transmit `length` connection-stream bytes starting at `dsn` as new
  /// subflow data (the DSS mapping of MPTCP). `data_fin` marks the end of
  /// the connection-level stream.
  void SendMappedData(std::uint64_t dsn, ByteCount length, bool data_fin);
  /// Drain the post-RTO retransmission backlog under the window.
  void TrySendRetransmits();
  /// Force a pure-ACK segment out now (window updates, probes).
  void SendPureAck();

  // -- introspection ------------------------------------------------------
  std::uint8_t id() const { return id_; }
  sim::Address local_address() const { return local_; }
  sim::Address remote_address() const { return remote_; }
  const TcpRttEstimator& rtt() const { return rtt_; }
  cc::CongestionController& congestion() { return *congestion_; }
  const cc::CongestionController& congestion() const { return *congestion_; }
  bool potentially_failed() const { return potentially_failed_; }
  bool Usable() const { return established() && !potentially_failed_; }
  bool HasUnacked() const { return !unacked_.empty(); }
  /// Does any in-flight mapping on this subflow contain `dsn`?
  bool HoldsDsn(std::uint64_t dsn) const;
  /// ORP penalty: halve the window (at most once per RTT).
  void Penalize();
  ByteCount bytes_sent() const { return bytes_sent_; }
  std::uint64_t segments_retransmitted() const { return retransmit_count_; }
  std::uint64_t rto_count() const { return total_rtos_; }

 private:
  enum class State { kClosed, kListen, kSynSent, kSynReceived, kEstablished };

  struct SentSegment {
    ByteCount length{};
    std::uint64_t dsn = 0;
    TimePoint sent_time = 0;
    bool retransmitted = false;
    bool sacked = false;
    bool needs_retransmit = false;
    bool in_flight = true;  // bytes currently charged to the controller
    bool data_fin = false;
  };

  TcpSegment MakeSegment(std::uint8_t flags) const;
  void Transmit(TcpSegment&& segment);
  void SendSyn();
  void SendSynAck();
  void BecomeEstablished();

  void ProcessAck(const TcpSegment& segment);
  void ApplySacks(const std::vector<SackBlock>& sacks);
  void EnterRecovery(std::uint64_t first_hole_seq);
  void RetransmitSegment(std::uint64_t seq);
  void ProcessPayload(const TcpSegment& segment);
  void DeliverInOrderPayloads();
  void ScheduleAck(bool out_of_order);
  std::vector<SackBlock> BuildSackBlocks() const;

  void OnRtoTimer();
  Duration CurrentRto() const {
    return rtt_.Rto() << (rto_backoff_ > 6 ? 6 : rto_backoff_);
  }

  sim::Simulator& sim_;
  SubflowHost& host_;
  std::uint8_t id_;
  std::uint64_t cid_;
  sim::Address local_;
  sim::Address remote_;
  std::unique_ptr<cc::CongestionController> congestion_;
  SubflowConfig config_;
  State state_ = State::kClosed;

  // Send state. SYN consumes sequence 0; data starts at 1.
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::map<std::uint64_t, SentSegment> unacked_;  // by subflow seq
  /// Segments marked lost and awaiting retransmission (subflow seqs).
  std::set<std::uint64_t> retx_pending_;
  /// SACK loss inference never needs to re-scan below this seq.
  std::uint64_t loss_marked_up_to_ = 0;
  /// Coalesced SACK intervals already applied to the scoreboard; incoming
  /// blocks are processed only where they add new information.
  std::map<std::uint64_t, std::uint64_t> sack_seen_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;
  TimePoint syn_sent_time_ = -1;
  bool syn_retransmitted_ = false;
  bool mp_join_ = false;

  // Karn/one-timer RTT sampling.
  bool timing_active_ = false;
  std::uint64_t timed_seq_end_ = 0;  // sample when snd_una_ >= this
  TimePoint timed_sent_ = 0;

  TcpRttEstimator rtt_;
  sim::Timer rto_timer_;
  int rto_backoff_ = 0;
  std::uint64_t total_rtos_ = 0;
  bool potentially_failed_ = false;
  TimePoint last_send_time_ = -1;
  TimePoint last_ack_activity_ = -1;
  TimePoint last_penalty_ = -1;

  // Receive state.
  std::uint64_t rcv_nxt_ = 0;
  struct OooSegment {
    std::vector<std::uint8_t> data;
    std::uint64_t dsn = 0;
    bool data_fin = false;
  };
  std::map<std::uint64_t, OooSegment> ooo_;  // by subflow seq
  /// Coalesced [start, end) views of ooo_, maintained incrementally so
  /// SACK generation is O(blocks), not O(|ooo_|).
  std::map<std::uint64_t, std::uint64_t> ooo_ranges_;
  sim::Timer delack_timer_;
  int unacked_arrivals_ = 0;

  // Statistics.
  ByteCount bytes_sent_{};
  std::uint64_t retransmit_count_ = 0;
};

}  // namespace mpq::tcp
