#include "tcpsim/subflow.h"

#include <algorithm>

#include "common/log.h"

namespace mpq::tcp {

namespace {

/// Insert [start, end) into a coalesced interval map.
void InsertInterval(std::map<std::uint64_t, std::uint64_t>& intervals,
                    std::uint64_t start, std::uint64_t end) {
  if (end <= start) return;
  auto it = intervals.lower_bound(start);
  if (it != intervals.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = intervals.erase(prev);
    }
  }
  while (it != intervals.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = intervals.erase(it);
  }
  intervals.emplace(start, end);
}

}  // namespace

Subflow::Subflow(sim::Simulator& sim, SubflowHost& host, std::uint8_t id,
                 std::uint64_t cid, sim::Address local, sim::Address remote,
                 std::unique_ptr<cc::CongestionController> congestion,
                 SubflowConfig config)
    : sim_(sim),
      host_(host),
      id_(id),
      cid_(cid),
      local_(local),
      remote_(remote),
      congestion_(std::move(congestion)),
      config_(config),
      rto_timer_(sim, [this] { OnRtoTimer(); }),
      delack_timer_(sim, [this] { SendPureAck(); }) {}

TcpSegment Subflow::MakeSegment(std::uint8_t flags) const {
  TcpSegment segment;
  segment.cid = cid_;
  segment.subflow = id_;
  segment.flags = flags;
  segment.seq = snd_nxt_;
  segment.ack = rcv_nxt_;
  segment.window = host_.AdvertisedWindow();
  segment.data_ack = host_.ConnectionDataAck();
  segment.sacks = BuildSackBlocks();
  return segment;
}

void Subflow::Transmit(const TcpSegment& segment, std::uint64_t dsn,
                       std::size_t payload_size) {
  bytes_sent_ += SegmentHeaderSize(segment) + payload_size;
  last_send_time_ = sim_.now();
  host_.EmitSegment(*this, segment, dsn, payload_size);
}

// ---------------------------------------------------------------------------
// Handshake

void Subflow::ConnectActive(bool mp_join) {
  state_ = State::kSynSent;
  mp_join_ = mp_join;
  snd_nxt_ = 1;  // SYN consumes sequence 0
  syn_sent_time_ = sim_.now();
  SendSyn();
}

void Subflow::SendSyn() {
  TcpSegment syn = MakeSegment(kFlagSyn);
  syn.seq = 0;
  if (mp_join_) syn.flags |= kFlagMpJoin;
  Transmit(syn);
  rto_timer_.SetIn(CurrentRto());
}

void Subflow::SendSynAck() {
  TcpSegment synack = MakeSegment(kFlagSyn | kFlagAck);
  synack.seq = 0;
  snd_nxt_ = 1;
  Transmit(synack);
  rto_timer_.SetIn(CurrentRto());
}

void Subflow::BecomeEstablished() {
  state_ = State::kEstablished;
  snd_una_ = 1;
  rto_timer_.Cancel();
  rto_backoff_ = 0;
  host_.OnSubflowEstablished(*this);
}

// ---------------------------------------------------------------------------
// Segment dispatch

void Subflow::OnSegment(const TcpSegment& segment) {
  switch (state_) {
    case State::kClosed:
      return;
    case State::kListen:
      if (segment.has(kFlagSyn) && !segment.has(kFlagAck)) {
        rcv_nxt_ = segment.seq + 1;
        state_ = State::kSynReceived;
        host_.OnPeerWindow(segment.data_ack, segment.window);
        SendSynAck();
      }
      return;
    case State::kSynSent:
      if (segment.has(kFlagSyn) && segment.has(kFlagAck) &&
          segment.ack >= 1) {
        rcv_nxt_ = segment.seq + 1;
        // Handshake RTT sample (Karn: only if the SYN was never resent).
        if (!syn_retransmitted_ && syn_sent_time_ >= 0) {
          rtt_.AddSample(sim_.now() - syn_sent_time_);
        }
        host_.OnPeerWindow(segment.data_ack, segment.window);
        BecomeEstablished();
        SendPureAck();
      }
      return;
    case State::kSynReceived:
      if (segment.has(kFlagAck) && segment.ack >= 1) {
        BecomeEstablished();
        // Fall through to normal processing of any piggybacked data.
        ProcessAck(segment);
        ProcessPayload(segment);
      }
      return;
    case State::kEstablished:
      if (segment.has(kFlagSyn) && segment.has(kFlagAck)) {
        // Retransmitted SYN/ACK: our handshake ACK was lost.
        SendPureAck();
        return;
      }
      ProcessAck(segment);
      ProcessPayload(segment);
      return;
  }
}

// ---------------------------------------------------------------------------
// Sending data

void Subflow::SendMappedData(std::uint64_t dsn, ByteCount length,
                             bool data_fin) {
  TcpSegment segment = MakeSegment(kFlagAck);
  segment.seq = snd_nxt_;
  if (config_.multipath) segment.dss = DssMapping{dsn};
  if (data_fin) segment.flags |= kFlagDataFin;

  SentSegment info;
  info.length = length;
  info.dsn = dsn;
  info.sent_time = sim_.now();
  info.data_fin = data_fin;
  unacked_.emplace(snd_nxt_, info);

  // One timed segment at a time (classic TCP RTT sampling).
  if (!timing_active_) {
    timing_active_ = true;
    timed_seq_end_ = snd_nxt_ + length.value();
    timed_sent_ = sim_.now();
  }

  congestion_->OnPacketSent(sim_.now(), length);
  snd_nxt_ += length.value();
  Transmit(segment, dsn, length.value());
  // RFC 6298 (5.1): start the timer on send only if it is not running —
  // restarting per send would keep postponing a pending stall's RTO.
  if (!rto_timer_.armed()) rto_timer_.SetIn(CurrentRto());
}

void Subflow::RetransmitSegment(std::uint64_t seq) {
  auto it = unacked_.find(seq);
  if (it == unacked_.end()) return;
  SentSegment& info = it->second;
  if (info.sacked) return;

  TcpSegment segment = MakeSegment(kFlagAck);
  segment.seq = seq;
  if (config_.multipath) segment.dss = DssMapping{info.dsn};
  if (info.data_fin) segment.flags |= kFlagDataFin;

  // Karn: a retransmission overlapping the timed range poisons the sample.
  if (timing_active_ && seq < timed_seq_end_) timing_active_ = false;

  // In-flight accounting: write off the copy currently in the network
  // (if any), then charge the retransmission.
  if (info.in_flight) {
    congestion_->OnPacketLost(sim_.now(), info.length, info.sent_time);
  }
  congestion_->OnPacketSent(sim_.now(), info.length);
  info.in_flight = true;
  info.retransmitted = true;
  info.needs_retransmit = false;
  info.sent_time = sim_.now();
  ++retransmit_count_;
  Transmit(segment, info.dsn, info.length.value());
  if (!rto_timer_.armed()) rto_timer_.SetIn(CurrentRto());
}

void Subflow::TrySendRetransmits() {
  if (!established()) return;
  while (!retx_pending_.empty()) {
    const std::uint64_t seq = *retx_pending_.begin();
    auto it = unacked_.find(seq);
    if (it == unacked_.end() || it->second.sacked ||
        !it->second.needs_retransmit) {
      retx_pending_.erase(retx_pending_.begin());
      continue;
    }
    if (!congestion_->CanSend(it->second.length)) break;
    RetransmitSegment(seq);  // clears needs_retransmit
    retx_pending_.erase(seq);
  }
}

// ---------------------------------------------------------------------------
// ACK processing

void Subflow::ProcessAck(const TcpSegment& segment) {
  host_.OnPeerWindow(segment.data_ack, segment.window);
  if (!segment.has(kFlagAck)) return;
  const std::uint64_t ack = segment.ack;

  if (ack > snd_una_) {
    ApplySacks(segment.sacks);
    // Cumulative advance: segments are MSS-chunked and acked whole.
    while (!unacked_.empty()) {
      auto it = unacked_.begin();
      if (it->first + it->second.length > ack) break;
      SentSegment& info = it->second;
      // Credit exactly the bytes still charged to the controller (a
      // SACKed or written-off segment has none in flight).
      if (info.in_flight) {
        congestion_->OnPacketAcked(sim_.now(), info.length, info.sent_time,
                                   rtt_.smoothed());
        info.in_flight = false;
      }
      retx_pending_.erase(it->first);
      unacked_.erase(it);
    }
    // RTT sample from the timed segment (Karn-filtered: timing was
    // invalidated if anything in the range was retransmitted).
    if (timing_active_ && ack >= timed_seq_end_) {
      rtt_.AddSample(sim_.now() - timed_sent_);
      timing_active_ = false;
    }
    snd_una_ = ack;
    while (!sack_seen_.empty() && sack_seen_.begin()->second <= snd_una_) {
      sack_seen_.erase(sack_seen_.begin());
    }
    dup_acks_ = 0;
    rto_backoff_ = 0;
    last_ack_activity_ = sim_.now();
    potentially_failed_ = false;

    if (in_recovery_) {
      if (snd_una_ >= recover_point_) {
        in_recovery_ = false;
      } else {
        // NewReno partial ack: the next hole starts at the new snd_una —
        // but a hole whose retransmission was already sent (and evidently
        // lost) is invisible to a pre-RACK stack and must wait for the
        // RTO (see SubflowConfig::lost_retransmission_needs_rto).
        auto hole = unacked_.find(snd_una_);
        if (hole != unacked_.end() &&
            (!hole->second.retransmitted ||
             !config_.lost_retransmission_needs_rto)) {
          RetransmitSegment(snd_una_);
        }
      }
    }
    if (unacked_.empty()) {
      rto_timer_.Cancel();
    } else {
      rto_timer_.SetIn(CurrentRto());
    }
    host_.OnSubflowCanSend();
    return;
  }

  if (ack == snd_una_ && segment.payload.empty() && !unacked_.empty()) {
    ApplySacks(segment.sacks);
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      EnterRecovery(snd_una_);
    }
    if (in_recovery_) {
      // Drain whatever the SACK scoreboard has inferred lost, as the
      // window allows (RFC 6675 pipe-style recovery).
      TrySendRetransmits();
    }
    host_.OnSubflowCanSend();
  }
}

void Subflow::ApplySacks(const std::vector<SackBlock>& sacks) {
  std::uint64_t highest_sacked = 0;
  for (const SackBlock& block : sacks) {
    if (block.end <= block.start) continue;
    highest_sacked = std::max(highest_sacked, block.end);
    // Walk only the parts of the block not already applied (receivers
    // repeat their top ranges in every ack; re-walking them is the hot
    // path this avoids).
    std::uint64_t cursor = block.start;
    while (cursor < block.end) {
      auto seen = sack_seen_.upper_bound(cursor);
      std::uint64_t novel_end = block.end;
      if (seen != sack_seen_.begin()) {
        auto prev = std::prev(seen);
        if (prev->second > cursor) {
          cursor = prev->second;  // inside an already-applied interval
          continue;
        }
      }
      if (seen != sack_seen_.end() && seen->first < novel_end) {
        novel_end = seen->first;
      }
      for (auto it = unacked_.lower_bound(cursor);
           it != unacked_.end() && it->first + it->second.length <= novel_end;
           ++it) {
        SentSegment& info = it->second;
        if (info.sacked) continue;
        info.sacked = true;
        info.needs_retransmit = false;
        // SACKed bytes leave the network: count them as delivered for
        // congestion purposes (Linux-style in-flight accounting).
        if (info.in_flight) {
          congestion_->OnPacketAcked(sim_.now(), info.length,
                                     info.sent_time, rtt_.smoothed());
          info.in_flight = false;
        }
      }
      cursor = novel_end;
    }
    InsertInterval(sack_seen_, block.start, block.end);
  }
  if (highest_sacked == 0) return;
  // RFC 6675-style loss inference: an unsacked segment with at least
  // three segments' worth of SACKed data above it is lost. Mark it for
  // retransmission (drained under the congestion window) and write its
  // bytes off the in-flight total. A watermark avoids re-scanning the
  // already-classified region on every SACK-bearing ack.
  const std::uint64_t mss3 = 3 * config_.mss.value();
  const std::uint64_t loss_edge =
      highest_sacked > mss3 ? highest_sacked - mss3 : 0;
  for (auto it = unacked_.lower_bound(loss_marked_up_to_);
       it != unacked_.end(); ++it) {
    SentSegment& info = it->second;
    if (it->first + info.length > loss_edge) break;
    if (info.sacked || info.needs_retransmit || info.retransmitted) continue;
    info.needs_retransmit = true;
    retx_pending_.insert(it->first);
    if (info.in_flight) {
      congestion_->OnPacketLost(sim_.now(), info.length, info.sent_time);
      info.in_flight = false;
    }
  }
  loss_marked_up_to_ = std::max(loss_marked_up_to_, loss_edge);
}

void Subflow::EnterRecovery(std::uint64_t first_hole_seq) {
  in_recovery_ = true;
  recover_point_ = snd_nxt_;
  auto it = unacked_.find(first_hole_seq);
  if (it != unacked_.end() && !it->second.sacked) {
    RetransmitSegment(first_hole_seq);
  }
}

// ---------------------------------------------------------------------------
// RTO

void Subflow::OnRtoTimer() {
  if (state_ == State::kSynSent) {
    ++rto_backoff_;
    syn_retransmitted_ = true;
    SendSyn();
    return;
  }
  if (state_ == State::kSynReceived) {
    ++rto_backoff_;
    SendSynAck();
    return;
  }
  if (state_ != State::kEstablished || unacked_.empty()) return;

  ++total_rtos_;
  ++rto_backoff_;
  // §4.3 / Linux MPTCP: an RTO with no ack activity since our last send
  // marks the subflow potentially failed.
  if (last_ack_activity_ < last_send_time_) {
    potentially_failed_ = true;
  }
  congestion_->OnRetransmissionTimeout(sim_.now());
  in_recovery_ = false;
  dup_acks_ = 0;

  std::vector<DsnRange> outstanding;
  for (auto& [seq, info] : unacked_) {
    if (info.sacked) continue;
    if (info.in_flight) {
      congestion_->OnPacketLost(sim_.now(), info.length, info.sent_time);
      info.in_flight = false;
    }
    info.needs_retransmit = true;
    retx_pending_.insert(seq);
    outstanding.push_back({info.dsn, info.length.value()});
  }
  // Go-back-N restart: retransmit the first hole now, the rest as the
  // window reopens.
  if (!unacked_.empty()) RetransmitSegment(unacked_.begin()->first);
  rto_timer_.SetIn(CurrentRto());
  host_.OnSubflowTimeout(*this, std::move(outstanding));
}

// ---------------------------------------------------------------------------
// Receiving

void Subflow::ProcessPayload(const TcpSegment& segment) {
  if (segment.payload.empty()) return;
  const std::uint64_t seq = segment.seq;
  const std::uint64_t seg_end = seq + segment.payload.size();

  if (seg_end <= rcv_nxt_) {
    // Pure duplicate: ack immediately so the sender sees progress.
    SendPureAck();
    return;
  }
  const std::uint64_t dsn =
      segment.dss.has_value() ? segment.dss->dsn : seq - 1;

  if (seq > rcv_nxt_) {
    OooSegment ooo;
    ooo.data.assign(segment.payload.begin(), segment.payload.end());
    ooo.dsn = dsn;
    ooo.data_fin = segment.has(kFlagDataFin);
    ooo_.emplace(seq, std::move(ooo));
    InsertInterval(ooo_ranges_, seq, seg_end);
    ScheduleAck(/*out_of_order=*/true);
    return;
  }

  // In-order (possibly overlapping the delivered prefix).
  const std::size_t skip = rcv_nxt_ - seq;
  const std::span<const std::uint8_t> fresh = segment.payload.subspan(skip);
  // RFC 5681: ack immediately when a segment fills (part of) a gap, so
  // the sender's recovery sees the partial-ack progress at once.
  const bool fills_gap = !ooo_.empty();
  rcv_nxt_ = seg_end;
  host_.OnSubflowDataDelivered(*this, dsn + skip, fresh,
                               segment.has(kFlagDataFin));
  DeliverInOrderPayloads();
  ScheduleAck(/*out_of_order=*/fills_gap);
}

void Subflow::DeliverInOrderPayloads() {
  while (!ooo_.empty()) {
    auto it = ooo_.begin();
    if (it->first > rcv_nxt_) break;
    const std::uint64_t seg_end = it->first + it->second.data.size();
    if (seg_end <= rcv_nxt_) {
      ooo_.erase(it);
      continue;
    }
    const std::size_t skip = rcv_nxt_ - it->first;
    std::span<const std::uint8_t> fresh(it->second.data.data() + skip,
                                        it->second.data.size() - skip);
    rcv_nxt_ = seg_end;
    host_.OnSubflowDataDelivered(*this, it->second.dsn + skip, fresh,
                                 it->second.data_fin);
    ooo_.erase(it);
  }
  // Drop delivered prefixes from the coalesced range view.
  while (!ooo_ranges_.empty()) {
    auto it = ooo_ranges_.begin();
    if (it->second <= rcv_nxt_) {
      ooo_ranges_.erase(it);
      continue;
    }
    if (it->first < rcv_nxt_) {
      const std::uint64_t end = it->second;
      ooo_ranges_.erase(it);
      ooo_ranges_.emplace(rcv_nxt_, end);
    }
    break;
  }
}

std::vector<SackBlock> Subflow::BuildSackBlocks() const {
  // Report the highest max_sack_blocks coalesced out-of-order ranges
  // (TCP's option space holds 2-3; the ranges are maintained
  // incrementally as segments arrive).
  std::vector<SackBlock> ranges;
  for (auto it = ooo_ranges_.rbegin();
       it != ooo_ranges_.rend() &&
       ranges.size() < static_cast<std::size_t>(config_.max_sack_blocks);
       ++it) {
    ranges.push_back({it->first, it->second});
  }
  return ranges;
}

void Subflow::ScheduleAck(bool out_of_order) {
  if (out_of_order) {
    SendPureAck();  // immediate dupack with SACK
    return;
  }
  ++unacked_arrivals_;
  if (unacked_arrivals_ >= 2) {
    SendPureAck();
  } else if (!delack_timer_.armed()) {
    delack_timer_.SetIn(config_.delayed_ack_timeout);
  }
}

void Subflow::SendPureAck() {
  if (state_ != State::kEstablished) return;
  unacked_arrivals_ = 0;
  delack_timer_.Cancel();
  Transmit(MakeSegment(kFlagAck));
}

// ---------------------------------------------------------------------------
// MPTCP hooks

bool Subflow::HoldsDsn(std::uint64_t dsn) const {
  for (const auto& [seq, info] : unacked_) {
    if (info.sacked) continue;
    if (dsn >= info.dsn && dsn < info.dsn + info.length) return true;
  }
  return false;
}

void Subflow::Penalize() {
  // ORP penalty (Raiciu et al., §4.1): halve the window of the subflow
  // blocking the connection, at most once per RTT.
  const Duration rtt = rtt_.has_sample() ? rtt_.smoothed() : 100 * kMillisecond;
  if (last_penalty_ >= 0 && sim_.now() - last_penalty_ < rtt) return;
  last_penalty_ = sim_.now();
  congestion_->OnPacketLost(sim_.now(), ByteCount{0}, sim_.now());
}

}  // namespace mpq::tcp
