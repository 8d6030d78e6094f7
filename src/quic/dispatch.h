// Receive half of the datapath: decrypt, packet-number reconstruction,
// duplicate detection, frame parsing and per-frame routing. Owns the
// opener keys, the receive streams (reassembly + in-order delivery) and
// the receive-side window accounting; everything that touches the send
// side, path lifecycle or connection state goes through DispatchDelegate.
//
// §2/§3 in this layer: the offset in STREAM frames fully orders the
// bytes, so reassembly works regardless of which path a frame arrived
// on, and receive-window advertisements are fanned out on all paths via
// the delegate.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "crypto/aead.h"
#include "quic/path.h"
#include "quic/stats.h"
#include "quic/streams.h"
#include "quic/trace.h"
#include "quic/wire.h"
#include "sim/net.h"
#include "sim/simulator.h"

namespace mpq::quic {

/// Frame routing the dispatcher cannot resolve locally: ACKs belong to
/// recovery, WINDOW_UPDATE to the send side, address/path frames to path
/// management — all behind the composer.
class DispatchDelegate {
 public:
  virtual ~DispatchDelegate() = default;

  virtual bool connection_closed() const = 0;
  /// Find the path, creating it on first contact (§3: data can ride in
  /// the very first packet of a peer-created path).
  virtual Path* EnsurePath(PathId id, const sim::Datagram& datagram) = 0;
  virtual void OnAckFrame(const AckFrame& ack) = 0;
  /// The peer waits for nothing below a floor on one of its send paths.
  virtual void OnStopWaitingFrame(const StopWaitingFrame& frame) = 0;
  /// Peer raised a send-side limit (connection or stream level).
  virtual void OnWindowUpdateFrame(const WindowUpdateFrame& frame) = 0;
  virtual void OnPathsFrame(const PathsFrame& frame) = 0;
  virtual void OnAddAddressFrame(const AddAddressFrame& frame) = 0;
  virtual void OnRemoveAddressFrame(const RemoveAddressFrame& frame) = 0;
  virtual void OnPeerClose(const ConnectionCloseFrame& frame) = 0;
  /// Our receive window moved — advertise it (on all paths under §3's
  /// multipath rule; the composer decides).
  virtual void FanOutWindowUpdate(const WindowUpdateFrame& frame) = 0;
  /// The packet carried retransmittable frames — note it on the path and
  /// schedule the ACK.
  virtual void OnAckElicitingPacket(Path& path, bool out_of_order) = 0;
};

class FrameDispatcher {
 public:
  /// In-order stream delivery: (stream, offset, bytes, finished).
  using StreamDataHandler =
      std::function<void(StreamId, ByteCount, std::span<const std::uint8_t>,
                         bool finished)>;

  FrameDispatcher(sim::Simulator& sim, ConnectionId cid,
                  ConnectionStats& stats, FlowController& flow,
                  DispatchDelegate& delegate);

  void SetTracer(ConnectionTracer* tracer) { tracer_ = tracer; }
  /// Install the opening keys (the peer's direction).
  void SetOpener(std::unique_ptr<crypto::PacketProtection> open);
  void SetStreamDataHandler(StreamDataHandler handler) {
    on_stream_data_ = std::move(handler);
  }

  /// Decrypt and process one 1-RTT packet. Drops it on missing keys,
  /// decrypt failure or duplicate packet number.
  void OnEncryptedPacket(const ParsedHeader& parsed, BufReader& reader,
                         std::span<const std::uint8_t> datagram_bytes,
                         const sim::Datagram& datagram);

  /// True while any receive stream still awaits data (idle-failure
  /// detection asks this).
  bool AnyRecvStreamUnfinished() const;

 private:
  friend class Auditor;

  /// STREAM frames view the opened plaintext, which outlives this call
  /// and no longer: receive streams copy only what they must buffer.
  void ProcessFrames(Path& path, const std::vector<Frame>& frames);
  void OnStreamFrameReceived(const StreamFrame& frame);
  RecvStream& GetOrCreateRecvStream(StreamId id);

  sim::Simulator& sim_;
  ConnectionId cid_;
  ConnectionStats& stats_;
  FlowController& flow_;
  DispatchDelegate& delegate_;
  ConnectionTracer* tracer_ = nullptr;

  std::unique_ptr<crypto::PacketProtection> open_;  // peer's direction
  StreamDataHandler on_stream_data_;

  std::map<StreamId, std::unique_ptr<RecvStream>> recv_streams_;
  /// Receive-side: per-stream advertised limits for stream-level windows.
  std::map<StreamId, ByteCount> stream_advertised_;
  /// Sum over streams of highest received offset (connection-level
  /// receive accounting).
  ByteCount total_highest_received_{};

  // Recycled per-packet scratch (see assembler.h for the rationale).
  std::vector<std::uint8_t> recv_plaintext_scratch_;
  std::vector<Frame> recv_frames_scratch_;
  /// Range storage for decoded ACK frames: the ACKs in
  /// recv_frames_scratch_ give theirs back here before the next packet is
  /// decoded (DecodePayload), so clearing the scratch frees none.
  AckRangeStore ack_ranges_spare_;
};

}  // namespace mpq::quic
