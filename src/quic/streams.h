// QUIC streams: send-side chunking and retransmission ranges, receive-side
// reassembly, and stream/connection flow control.
//
// STREAM frames carry (stream id, offset, data) — §2. Because the offset
// fully orders the bytes, the receiver can reassemble data arriving on any
// path; this is why MPQUIC needs no MPTCP-style DSN (§3, "Overall").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/source.h"
#include "common/types.h"
#include "quic/wire.h"

namespace mpq::quic {

/// Default flow-control window, §4.1: "maximal receive window values are
/// set to 16 MB for both TCP and QUIC".
inline constexpr ByteCount kDefaultReceiveWindow{16 * 1024 * 1024};

// ---------------------------------------------------------------------------
// Send stream

/// Sender half of one stream. Produces STREAM frames under a byte budget;
/// lost frames are fed back as [offset, length) ranges and take priority
/// over new data. The stream itself is path-agnostic — in MPQUIC a
/// retransmission is free to use a different path (§3).
class SendStream {
 public:
  SendStream(StreamId id, std::unique_ptr<SendSource> source)
      : id_(id), source_(std::move(source)) {}

  StreamId id() const { return id_; }
  ByteCount total_size() const { return source_->size(); }

  /// True if the stream has bytes (new or retransmit) ready to emit given
  /// the current flow-control limits.
  bool HasDataToSend(ByteCount connection_send_allowance) const;

  struct NextFrameResult {
    bool produced = false;
    /// NEW connection-level window consumed (0 for retransmissions).
    ByteCount new_bytes{};
  };

  /// Produce the next STREAM frame descriptor with at most `max_payload`
  /// payload bytes, consuming at most `connection_send_allowance` bytes of
  /// *new* connection-level window (retransmitted bytes don't re-count).
  /// Retransmission ranges are drained before new data. No bytes are read
  /// here: the payload is read from source() when the frame is encoded.
  NextFrameResult NextFrame(ByteCount max_payload,
                            ByteCount connection_send_allowance,
                            StreamFrame& frame);

  /// The immutable bytes behind every frame this stream produces.
  const SendSource& source() const { return *source_; }

  /// Re-queue a lost frame's range for retransmission.
  void OnFrameLost(ByteCount offset, ByteCount length, bool fin);

  /// Peer's stream-level flow control update.
  void OnMaxStreamData(ByteCount max) {
    if (max > peer_max_stream_data_) peer_max_stream_data_ = max;
  }

  /// Largest offset handed to the wire so far (counts toward the
  /// connection-level send limit exactly once).
  ByteCount max_offset_sent() const { return next_offset_; }

  bool fin_sent() const { return fin_sent_; }
  bool AllDataSentOnce() const {
    return next_offset_ >= total_size() && fin_sent_;
  }

 private:
  friend class Auditor;

  StreamId id_;
  std::unique_ptr<SendSource> source_;
  ByteCount next_offset_{};  // next NEW byte to send
  bool fin_sent_ = false;
  bool fin_lost_ = false;  // FIN needs retransmission
  ByteCount peer_max_stream_data_ = kDefaultReceiveWindow;
  /// A byte range of the stream awaiting retransmission.
  struct Range {
    ByteCount offset;
    ByteCount length;
  };
  // Pending retransmission ranges, sorted by offset, disjoint and
  // coalesced on insert.
  std::vector<Range> retransmit_;
};

// ---------------------------------------------------------------------------
// Receive stream

/// Receiver half of one stream: reassembles out-of-order STREAM frames and
/// delivers bytes in order to the application sink. The application is
/// modelled as consuming immediately (as the paper's file-download client
/// does), so flow-control credit is freed as soon as data is in order —
/// out-of-order bytes are what occupy the receive window.
class RecvStream {
 public:
  /// `sink(offset, data, fin_complete)` is invoked for in-order data.
  using Sink = std::function<void(ByteCount offset,
                                  std::span<const std::uint8_t> data,
                                  bool finished)>;

  explicit RecvStream(StreamId id) : id_(id) {}

  void SetSink(Sink sink) { sink_ = std::move(sink); }

  /// Process one STREAM frame. Returns the increase of this stream's
  /// highest-received offset (the amount of receive window newly consumed
  /// at connection level); 0 for pure duplicates. Data that starts at the
  /// delivered offset — in order, or filling the gap below buffered
  /// segments — is handed to the sink straight from the frame's view (no
  /// copy); only a segment that must wait for a gap is copied, into a
  /// reassembly buffer — the view dies with the packet.
  ByteCount OnStreamFrame(const StreamFrame& frame);

  StreamId id() const { return id_; }
  ByteCount delivered_offset() const { return delivered_; }
  /// Highest contiguous byte delivered == bytes consumed by the app.
  ByteCount consumed_bytes() const { return delivered_; }
  ByteCount highest_received() const { return highest_received_; }
  bool finished() const { return fin_known_ && delivered_ >= final_size_; }
  bool fin_known() const { return fin_known_; }
  ByteCount final_size() const { return final_size_; }
  /// Bytes buffered out of order (occupying receive window).
  ByteCount buffered_bytes() const { return buffered_; }

 private:
  /// An out-of-order segment waiting for the gap below it to fill.
  struct Segment {
    ByteCount offset;
    std::vector<std::uint8_t> data;
  };

  /// Copy out-of-order data starting at `start` into a segment.
  void Buffer(ByteCount start, std::span<const std::uint8_t> data);
  void DeliverInOrder();

  StreamId id_;
  Sink sink_;
  ByteCount delivered_{};         // contiguous prefix handed to the app
  ByteCount highest_received_{};  // max(offset+len) seen
  ByteCount buffered_{};
  bool fin_known_ = false;
  bool fin_signaled_ = false;  // the sink saw finished=true exactly once
  ByteCount final_size_{};
  /// Sorted by offset, offsets distinct, every offset above delivered_
  /// between calls.
  std::vector<Segment> segments_;
  /// Buffers of delivered segments, reused for the next ones.
  std::vector<std::vector<std::uint8_t>> spare_buffers_;
};

// ---------------------------------------------------------------------------
// Connection-level flow control

/// Tracks both directions of the connection-level window (stream 0 in
/// WINDOW_UPDATE frames). Stream-level windows default to the same size,
/// so in this implementation — as in the paper's setup — the connection
/// window is the binding constraint.
class FlowController {
 public:
  explicit FlowController(ByteCount window = kDefaultReceiveWindow)
      : window_(window), local_max_data_(window), peer_max_data_(window) {}

  // -- send side --------------------------------------------------------
  /// How many NEW bytes we may still put on the wire.
  ByteCount SendAllowance(ByteCount total_new_bytes_sent) const {
    return peer_max_data_ > total_new_bytes_sent
               ? peer_max_data_ - total_new_bytes_sent
               : ByteCount{0};
  }
  void OnMaxData(ByteCount max) {
    if (max > peer_max_data_) peer_max_data_ = max;
  }
  ByteCount peer_max_data() const { return peer_max_data_; }

  // -- receive side -----------------------------------------------------
  /// Called when streams consume in-order data; returns true when a
  /// WINDOW_UPDATE should be emitted (half the window consumed since the
  /// last advertisement).
  bool OnBytesConsumed(ByteCount newly_consumed) {
    consumed_ += newly_consumed;
    return consumed_ + window_ >= local_max_data_ + window_ / 2;
  }
  /// The limit to advertise now.
  ByteCount NextAdvertisement() {
    local_max_data_ = consumed_ + window_;
    return local_max_data_;
  }
  ByteCount local_max_data() const { return local_max_data_; }
  ByteCount window() const { return window_; }

  /// Receive-side enforcement: a peer writing past our advertised limit
  /// is a protocol violation (we drop the packet).
  bool WithinReceiveLimit(ByteCount highest_offset_total) const {
    return highest_offset_total <= local_max_data_;
  }

 private:
  friend class Auditor;

  ByteCount window_;
  ByteCount consumed_{};        // in-order bytes delivered to the app
  ByteCount local_max_data_;      // what we last advertised
  ByteCount peer_max_data_;       // what the peer allows us
};

}  // namespace mpq::quic
