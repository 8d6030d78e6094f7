#include "quic/path.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <variant>

namespace mpq::quic {

// ---------------------------------------------------------------------------
// SentPacketRing

SentPacket& SentPacketRing::Insert(PacketNumber pn) {
  // Nothing live: every slot is a hole, so re-base the window at `pn`.
  if (live_ == 0) {
    span_ = 0;
    base_ = pn;
  }
  assert(pn >= end());
  const std::size_t needed = (pn - base_).value() + 1;
  if (needed > slots_.size()) {
    std::size_t capacity = slots_.empty() ? 16 : slots_.size();
    while (capacity < needed) capacity *= 2;
    Grow(capacity);
  }
  span_ = needed;  // slots skipped on the way to `pn` are holes already
  ++live_;
  SentPacket& slot = Slot(pn);
  slot.pn = pn;
  slot.frames.clear();
  if (slot.frames.capacity() == 0 && !spare_frames_.empty()) {
    slot.frames = std::move(spare_frames_.back());
    spare_frames_.pop_back();
  }
  return slot;
}

void SentPacketRing::Erase(PacketNumber pn, SentPacket* out) {
  SentPacket& slot = Slot(pn);
  assert(slot.pn == pn);
  if (out != nullptr) {
    *out = std::move(slot);
  } else {
    slot.frames.clear();
  }
  slot.pn = PacketNumber{0};
  if (--live_ == 0) {
    span_ = 0;
    return;
  }
  // Keep the oldest live record at base_.
  while (slots_[head_].pn == 0) {
    head_ = (head_ + 1) & (slots_.size() - 1);
    ++base_;
    --span_;
  }
}

void SentPacketRing::TakeAll(std::vector<SentPacket>& out) {
  for (std::size_t i = 0; i < span_; ++i) {
    SentPacket& slot = slots_[(head_ + i) & (slots_.size() - 1)];
    if (slot.pn == 0) continue;
    out.push_back(std::move(slot));
    slot.pn = PacketNumber{0};
  }
  live_ = 0;
  span_ = 0;
}

void SentPacketRing::Grow(std::size_t capacity) {
  std::vector<SentPacket> grown(capacity);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
  }
  slots_.swap(grown);
  head_ = 0;
}

// ---------------------------------------------------------------------------
// Path

void Path::DeclareLost(SentPacket& packet, TimePoint now,
                       std::vector<SentPacket>& out) {
  congestion_->OnPacketLost(now, packet.bytes, packet.sent_time);
  ++packets_lost_;
  const PacketNumber pn = packet.pn;
  sent_.Erase(pn, &out.emplace_back());
}

void Path::RecycleLost(std::vector<SentPacket>& lost) {
  for (SentPacket& packet : lost) sent_.Recycle(std::move(packet.frames));
  lost.clear();
}

void Path::DetectLosses(TimePoint now, bool packet_threshold,
                        std::vector<SentPacket>& lost) {
  loss_time_ = kTimeInfinite;
  const Duration threshold = TimeThreshold();
  for (PacketNumber pn = sent_.base(); pn < largest_acked_ && pn < sent_.end();
       ++pn) {
    SentPacket* packet = sent_.Find(pn);
    if (packet == nullptr) continue;
    // Packet threshold: at least kReorderingThreshold below the largest
    // acked. Time threshold: sent sufficiently before it.
    if ((packet_threshold && largest_acked_ - pn >= kReorderingThreshold) ||
        packet->sent_time + threshold <= now) {
      DeclareLost(*packet, now, lost);
      continue;
    }
    loss_time_ = std::min(loss_time_, packet->sent_time + threshold);
  }
}

const Path::AckResult& Path::OnAckReceived(const AckFrame& ack,
                                           TimePoint now) {
  AckResult& result = ack_result_;
  result.newly_acked.clear();
  RecycleLost(result.lost);
  result.acked_ping = false;
  result.was_new_largest = false;
  if (ack.ranges.empty()) return result;
  const PacketNumber largest = ack.LargestAcked();

  if (largest > largest_acked_) {
    largest_acked_ = largest;
    result.was_new_largest = true;
  }

  // Collect newly acked packets. The RTT sample comes from the highest
  // newly-acked *tracked* packet (ack-only packets consume PNs but are
  // never tracked, so the frame's LargestAcked may not be in the ring).
  // Only the ring's window can hold tracked packets, whatever the range.
  PacketNumber rtt_sample_pn{};
  TimePoint rtt_sample_sent_time = -1;
  for (const auto& range : ack.ranges) {
    for (PacketNumber pn = std::max(range.smallest, sent_.base());
         pn <= range.largest && pn < sent_.end(); ++pn) {
      SentPacket* packet = sent_.Find(pn);
      if (packet == nullptr) continue;
      if (pn > rtt_sample_pn) {
        rtt_sample_pn = pn;
        rtt_sample_sent_time = packet->sent_time;
        largest_acked_sent_time_ = packet->sent_time;
      }
      congestion_->OnPacketAcked(now, packet->bytes, packet->sent_time,
                                 rtt_.smoothed());
      ++packets_acked_;
      result.newly_acked.push_back({pn, packet->sent_time});
      for (const Frame& frame : packet->frames) {
        if (std::holds_alternative<PingFrame>(frame)) result.acked_ping = true;
      }
      sent_.Erase(pn);
    }
  }
  if (rtt_sample_sent_time >= 0) {
    rtt_.AddSample(now - rtt_sample_sent_time, ack.ack_delay);
  }
  if (!result.newly_acked.empty()) {
    sent_since_ack_ = false;
    rto_count_ = 0;
    // Data acknowledged on this path: it works again (§4.3 — the state
    // persists "until data is acknowledged on this path").
    potentially_failed_ = false;
  }

  DetectLosses(now, /*packet_threshold=*/true, result.lost);
  // The peer still reports packets we wait for no longer (acked, or lost
  // and requeued): tell it where to stop (gQUIC's STOP_WAITING). One
  // range is as short as an ACK gets, so it never triggers.
  if (ack.ranges.size() > 1 && ack.ranges.back().largest < least_unacked()) {
    stop_waiting_pending_ = true;
  }
  return result;
}

const std::vector<SentPacket>& Path::DetectTimeThresholdLosses(
    TimePoint now) {
  RecycleLost(timer_lost_);
  DetectLosses(now, /*packet_threshold=*/false, timer_lost_);
  return timer_lost_;
}

const std::vector<SentPacket>& Path::Migrate(
    sim::Address local, sim::Address remote,
    std::unique_ptr<cc::CongestionController> fresh_congestion,
    TimePoint now) {
  local_ = local;
  remote_ = remote;
  // Everything in flight was addressed to the old path; hand the frames
  // back for retransmission on the new one.
  RecycleLost(timer_lost_);
  packets_lost_ += sent_.size();
  sent_.TakeAll(timer_lost_);
  loss_time_ = kTimeInfinite;
  // Measurements and congestion state belong to the old network path.
  congestion_ = std::move(fresh_congestion);
  rtt_ = RttEstimator();
  rto_count_ = 0;
  potentially_failed_ = false;
  remote_failed_ = false;
  (void)now;
  return timer_lost_;
}

const std::vector<SentPacket>& Path::OnRetransmissionTimeout(TimePoint now) {
  ++rto_count_;
  // §4.3: a path that sees an RTO with no network activity since our last
  // transmission is potentially failed; the scheduler will avoid it.
  if (sent_since_ack_) {
    potentially_failed_ = true;
  }
  congestion_->OnRetransmissionTimeout(now);
  // The packets' bytes were already removed from in-flight by the CC's
  // RTO handling? No — the controller only collapses the window; each
  // packet still occupies in-flight until acked or declared lost, so we
  // mark them lost explicitly (without a second window reduction: the
  // controller ignores losses sent before its recovery point).
  sent_.ForEach([&](const SentPacket& packet) {
    congestion_->OnPacketLost(now, packet.bytes, packet.sent_time);
  });
  RecycleLost(timer_lost_);
  packets_lost_ += sent_.size();
  sent_.TakeAll(timer_lost_);
  loss_time_ = kTimeInfinite;
  return timer_lost_;
}

}  // namespace mpq::quic
