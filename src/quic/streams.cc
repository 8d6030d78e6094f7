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
    Range& front = retransmit_.front();
    const ByteCount offset = front.offset;
    const ByteCount len = std::min<ByteCount>(front.length, max_payload);
    if (len < front.length) {
      front.offset += len;
      front.length -= len;
    } else {
      retransmit_.erase(retransmit_.begin());
    }
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
  auto it = std::lower_bound(
      retransmit_.begin(), retransmit_.end(), start,
      [](const Range& range, ByteCount v) { return range.offset < v; });
  if (it != retransmit_.begin()) {
    auto prev = std::prev(it);
    if (prev->offset + prev->length >= start) {
      start = prev->offset;
      end = std::max(end, prev->offset + prev->length);
      it = prev;
    }
  }
  auto last = it;
  while (last != retransmit_.end() && last->offset <= end) {
    end = std::max(end, last->offset + last->length);
    ++last;
  }
  // Overwrite the first absorbed range (or insert), drop the rest.
  if (it == last) {
    retransmit_.insert(it, Range{start, end - start});
  } else {
    *it = Range{start, end - start};
    retransmit_.erase(it + 1, last);
  }
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
    const std::span<const std::uint8_t> fresh =
        frame.data.subspan((start - frame.offset).value());

    if (start == delivered_) {
      // In order — the overwhelmingly common case — or filling the gap
      // below the buffered segments: hand the payload to the sink
      // straight from the frame, never buffering it.
      const bool finished =
          fin_known_ && !fin_signaled_ && frame_end >= final_size_;
      if (finished) fin_signaled_ = true;
      if (sink_) sink_(delivered_, fresh, finished);
      delivered_ = frame_end;
      if (segments_.empty()) return window_growth;
    } else {
      Buffer(start, fresh);
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

void RecvStream::Buffer(ByteCount start, std::span<const std::uint8_t> data) {
  auto it = std::lower_bound(
      segments_.begin(), segments_.end(), start,
      [](const Segment& segment, ByteCount v) { return segment.offset < v; });
  if (it != segments_.end() && it->offset == start) {
    // Same offset seen twice: keep the longer one.
    if (it->data.size() < data.size()) {
      buffered_ -= it->data.size();
      it->data.assign(data.begin(), data.end());
      buffered_ += it->data.size();
    }
    return;
  }
  // Out of order: the view dies with the packet, so this is the one
  // place the payload is copied — into a recycled buffer.
  std::vector<std::uint8_t> buffer;
  if (!spare_buffers_.empty()) {
    buffer = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
  }
  buffer.assign(data.begin(), data.end());
  buffered_ += buffer.size();
  segments_.insert(it, Segment{start, std::move(buffer)});
}

void RecvStream::DeliverInOrder() {
  std::size_t done = 0;
  for (; done < segments_.size(); ++done) {
    const Segment& segment = segments_[done];
    if (segment.offset > delivered_) break;  // gap
    const ByteCount seg_end = segment.offset + segment.data.size();
    if (seg_end <= delivered_) {
      buffered_ -= segment.data.size();
      continue;  // fully duplicate
    }
    const std::size_t skip = (delivered_ - segment.offset).value();
    const std::span<const std::uint8_t> fresh(segment.data.data() + skip,
                                              segment.data.size() - skip);
    const ByteCount new_delivered = seg_end;
    const bool finished =
        fin_known_ && !fin_signaled_ && new_delivered >= final_size_;
    if (finished) fin_signaled_ = true;
    if (sink_) sink_(delivered_, fresh, finished);
    delivered_ = new_delivered;
    buffered_ -= segment.data.size();
  }
  if (done == 0) return;
  for (std::size_t i = 0; i < done; ++i) {
    spare_buffers_.push_back(std::move(segments_[i].data));
  }
  segments_.erase(segments_.begin(),
                  segments_.begin() + static_cast<std::ptrdiff_t>(done));
}

}  // namespace mpq::quic
