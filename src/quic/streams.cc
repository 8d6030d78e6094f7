#include "quic/streams.h"

#include <algorithm>

namespace mpq::quic {

// ---------------------------------------------------------------------------
// SendStream

bool SendStream::HasDataToSend(ByteCount connection_send_allowance) const {
  if (!retransmit_.empty() || fin_lost_) return true;
  if (next_offset_ < total_size()) {
    // New data needs both stream- and connection-level credit.
    return next_offset_ < peer_max_stream_data_ &&
           connection_send_allowance > 0;
  }
  return !fin_sent_;
}

SendStream::NextFrameResult SendStream::NextFrame(
    ByteCount max_payload, ByteCount connection_send_allowance,
    StreamFrame& frame) {
  if (max_payload == 0) return {};

  // 1. Retransmissions first: they consume no new flow-control credit and
  //    unblock the receiver fastest.
  if (!retransmit_.empty()) {
    const auto [offset, range] = *retransmit_.begin();
    const ByteCount len = std::min<ByteCount>(range, max_payload);
    retransmit_.erase(retransmit_.begin());
    if (len < range) retransmit_.emplace(offset + len, range - len);
    // FIN rides along if this chunk reaches the end of the stream.
    const bool fin = fin_lost_ && offset + len >= total_size();
    if (fin) fin_lost_ = false;
    frame = {id_, offset, len, fin};
    return {true, ByteCount{0}};
  }
  if (fin_lost_) {
    fin_lost_ = false;
    frame = {id_, total_size(), ByteCount{0}, true};
    return {true, ByteCount{0}};
  }

  // 2. New data under stream + connection flow control.
  if (next_offset_ >= total_size()) {
    if (fin_sent_) return {};
    fin_sent_ = true;
    frame = {id_, next_offset_, ByteCount{0}, true};
    return {true, ByteCount{0}};
  }
  const ByteCount stream_allow =
      peer_max_stream_data_ > next_offset_
          ? peer_max_stream_data_ - next_offset_
          : ByteCount{0};
  const ByteCount len = std::min<ByteCount>(
      {max_payload, total_size() - next_offset_, stream_allow,
       connection_send_allowance});
  if (len == 0) return {};  // flow-control blocked
  frame = {id_, next_offset_, len, next_offset_ + len >= total_size()};
  next_offset_ += len;
  if (frame.fin) fin_sent_ = true;
  return {true, len};
}

void SendStream::OnFrameLost(ByteCount offset, ByteCount length, bool fin) {
  if (fin) fin_lost_ = true;
  if (length == 0) return;
  // Insert [offset, offset+length) and coalesce with neighbours.
  ByteCount start = offset;
  ByteCount end = offset + length;
  auto it = retransmit_.lower_bound(start);
  if (it != retransmit_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->first + prev->second);
      it = retransmit_.erase(prev);
    }
  }
  while (it != retransmit_.end() && it->first <= end) {
    end = std::max(end, it->first + it->second);
    it = retransmit_.erase(it);
  }
  retransmit_.emplace(start, end - start);
}

// ---------------------------------------------------------------------------
// RecvStream

ByteCount RecvStream::OnStreamFrame(const StreamFrame& frame) {
  if (frame.fin) {
    fin_known_ = true;
    final_size_ = frame.offset + frame.data.size();
  }
  const ByteCount frame_end = frame.offset + frame.data.size();
  ByteCount window_growth{};
  if (frame_end > highest_received_) {
    window_growth = frame_end - highest_received_;
    highest_received_ = frame_end;
  }

  if (frame_end > delivered_ && !frame.data.empty()) {
    // Trim the already-delivered prefix. Overlaps with other buffered
    // segments are tolerated (delivery skips duplicate bytes).
    const ByteCount start = std::max(frame.offset, delivered_);
    const std::size_t skip = (start - frame.offset).value();

    if (segments_.empty() && start == delivered_) {
      // In-order fast path — the overwhelmingly common case: hand the
      // payload to the sink straight from the frame, never buffering it.
      const std::span<const std::uint8_t> fresh(frame.data.data() + skip,
                                                frame.data.size() - skip);
      const bool finished =
          fin_known_ && !fin_signaled_ && frame_end >= final_size_;
      if (finished) fin_signaled_ = true;
      if (sink_) sink_(delivered_, fresh, finished);
      delivered_ = frame_end;
      return window_growth;
    }

    // Out of order: the view dies with the packet, so this is the one
    // place the payload is copied.
    std::vector<std::uint8_t> data(frame.data.begin() + skip,
                                   frame.data.end());
    // try_emplace leaves `data` intact when the offset is already present.
    auto [it, inserted] = segments_.try_emplace(start, std::move(data));
    if (inserted) {
      buffered_ += it->second.size();
    } else if (it->second.size() < data.size()) {
      // Same offset seen twice: keep the longer one.
      buffered_ -= it->second.size();
      it->second = std::move(data);
      buffered_ += it->second.size();
    }
  }
  DeliverInOrder();
  if (fin_known_ && !fin_signaled_ && delivered_ >= final_size_ && sink_) {
    // A bare FIN (no data) completes the stream on its own; duplicate or
    // retransmitted FINs (e.g. from scheduler duplication) signal once.
    fin_signaled_ = true;
    sink_(delivered_, {}, true);
  }
  return window_growth;
}

void RecvStream::DeliverInOrder() {
  while (!segments_.empty()) {
    auto it = segments_.begin();
    if (it->first > delivered_) break;  // gap
    const ByteCount seg_end = it->first + it->second.size();
    if (seg_end <= delivered_) {
      buffered_ -= it->second.size();
      segments_.erase(it);
      continue;  // fully duplicate
    }
    const std::size_t skip = (delivered_ - it->first).value();
    std::span<const std::uint8_t> fresh(it->second.data() + skip,
                                        it->second.size() - skip);
    const ByteCount new_delivered = seg_end;
    const bool finished =
        fin_known_ && !fin_signaled_ && new_delivered >= final_size_;
    if (finished) fin_signaled_ = true;
    if (sink_) sink_(delivered_, fresh, finished);
    delivered_ = new_delivered;
    buffered_ -= it->second.size();
    segments_.erase(it);
  }
}

}  // namespace mpq::quic
