#include "quic/assembler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mpq::quic {

namespace {

/// Delayed-ACK timeout (quic-go used 25 ms).
constexpr Duration kDelayedAckTimeout = 25 * kMillisecond;

/// Send an immediate ACK after this many unacked retransmittable packets.
constexpr int kAckAfterPackets = 2;

/// Reserve for STREAM frame header when filling a packet.
constexpr std::size_t kStreamFrameOverhead = 16;

constexpr double kPaceBurstPackets = 10.0;

}  // namespace

PacketAssembler::PacketAssembler(
    sim::Simulator& sim, const ConnectionConfig& config, ConnectionId cid,
    ConnectionStats& stats, FlowController& flow,
    std::map<StreamId, std::unique_ptr<SendStream>>& streams,
    ControlQueue& control, RecoveryManager& recovery,
    AssemblerDelegate& delegate, SendFunction send)
    : sim_(sim),
      config_(config),
      cid_(cid),
      stats_(stats),
      flow_(flow),
      send_streams_(streams),
      control_(control),
      recovery_(recovery),
      delegate_(delegate),
      send_(std::move(send)) {
  pace_timer_ =
      std::make_unique<sim::Timer>(sim_, [this] { delegate_.RequestSend(); });
}

void PacketAssembler::SetSealer(
    std::unique_ptr<crypto::PacketProtection> seal) {
  seal_ = std::move(seal);
}

void PacketAssembler::RegisterPath(Path& path) {
  PathSendState& state = paths_[path.id()];
  state.path = &path;
  PathSendState* raw = &state;
  state.ack_timer = std::make_unique<sim::Timer>(sim_, [this, raw] {
    if (raw->path->ack_pending()) SendAckOnlyPacket(*raw->path);
  });
}

void PacketAssembler::OnConnectionClosed() {
  closed_ = true;
  for (auto& [id, state] : paths_) state.ack_timer->Cancel();
  if (pace_timer_) pace_timer_->Cancel();
}

AckFrame PacketAssembler::BuildAck(PathSendState& state) {
  Path& path = *state.path;
  AckFrame ack;
  ack.path_id = path.id();
  // The ranges are built into the assembler's storage, which comes back
  // once the packet is encoded (TransmitPacket).
  ack.ranges = std::move(ack_ranges_);
  path.receiver().BuildAckRanges(ack.ranges);
  ack.ack_delay = sim_.now() - path.receiver().largest_received_time();
  path.ClearAckPending();
  state.ack_timer->Cancel();
  return ack;
}

void PacketAssembler::ReclaimAckRanges(Frame& frame) {
  if (auto* ack = std::get_if<AckFrame>(&frame)) {
    ack_ranges_ = std::move(ack->ranges);
  }
}

void PacketAssembler::MaybeScheduleAck(Path& path, bool out_of_order) {
  PathSendState& state = paths_.at(path.id());
  if (out_of_order ||
      path.unacked_retransmittable_count() >= kAckAfterPackets) {
    SendAckOnlyPacket(path);
    return;
  }
  if (!state.ack_timer->armed()) {
    state.ack_timer->SetIn(kDelayedAckTimeout);
  }
}

void PacketAssembler::SendAckOnlyPacket(Path& path) {
  if (!established_ || closed_) return;
  if (!path.receiver().AnythingToAck()) return;
  std::vector<Frame>& frames = single_frame_scratch_;
  frames.clear();
  frames.emplace_back(BuildAck(paths_.at(path.id())));
  TransmitPacket(path, frames, /*retransmittable=*/false,
                 /*handshake_cleartext=*/false);
}

void PacketAssembler::SendPing(Path& path, bool track) {
  std::vector<Frame>& frames = single_frame_scratch_;
  frames.clear();
  frames.emplace_back(PingFrame{});
  TransmitPacket(path, frames, /*retransmittable=*/track,
                 /*handshake_cleartext=*/false);
}

bool PacketAssembler::AnyStreamHasData() {
  const ByteCount allowance = SendAllowance();
  for (auto& [id, stream] : send_streams_) {
    if (stream->HasDataToSend(allowance)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pacing

double PacketAssembler::PacingRate(const Path& path) const {
  if (!path.rtt().has_sample()) return 0.0;  // unlimited until measured
  const double factor = path.congestion().InSlowStart() ? 2.0 : 1.25;
  return factor *
         static_cast<double>(path.congestion().congestion_window()) /
         static_cast<double>(path.rtt().smoothed());
}

void PacketAssembler::RefillPaceTokens(PathSendState& state) {
  const double burst =
      kPaceBurstPackets * static_cast<double>(config_.max_packet_size);
  const double rate = PacingRate(*state.path);
  const TimePoint now = sim_.now();
  if (rate <= 0.0) {
    state.pace_tokens = burst;
  } else {
    state.pace_tokens =
        std::min(burst, state.pace_tokens +
                            rate * static_cast<double>(
                                       now - state.pace_refill_time));
  }
  state.pace_refill_time = now;
}

bool PacketAssembler::PacingAllows(Path& path, ByteCount bytes) {
  if (!config_.pacing) return true;
  PathSendState& state = paths_.at(path.id());
  RefillPaceTokens(state);
  return state.pace_tokens >= static_cast<double>(bytes);
}

void PacketAssembler::ConsumePaceTokens(PathSendState& state,
                                        ByteCount bytes) {
  if (!config_.pacing) return;
  state.pace_tokens -= static_cast<double>(bytes);
}

void PacketAssembler::ArmPaceTimer() {
  // Earliest time any usable, window-open path accumulates one packet's
  // worth of tokens.
  Duration earliest = kTimeInfinite;
  for (auto& [id, state] : paths_) {
    if (!state.path->Usable() ||
        !state.path->congestion().CanSend(config_.max_packet_size)) {
      continue;
    }
    const double rate = PacingRate(*state.path);
    if (rate <= 0.0) continue;
    const double deficit =
        static_cast<double>(config_.max_packet_size) - state.pace_tokens;
    if (deficit <= 0.0) continue;
    earliest = std::min(earliest, static_cast<Duration>(deficit / rate) + 1);
  }
  if (earliest != kTimeInfinite && !pace_timer_->armed()) {
    pace_timer_->SetIn(earliest);
  }
}

void PacketAssembler::ResetPathPacing(PathId id) {
  PathSendState& state = paths_.at(id);
  state.pace_tokens = 0.0;
  state.pace_refill_time = sim_.now();
}

// ---------------------------------------------------------------------------
// Packet assembly

bool PacketAssembler::SendOnePacket(
    Path& path, bool include_stream_data,
    const std::vector<StreamFrame>* duplicate_of,
    std::vector<StreamFrame>* sent_stream_frames) {
  const std::size_t header_size =
      1 + 8 + (config_.multipath ? 1 : 0) +
      PacketNumberLength(path.largest_sent() + 1, path.largest_acked());
  if (config_.max_packet_size < header_size + crypto::kAeadTagSize + 8) {
    return false;
  }
  std::size_t budget =
      config_.max_packet_size.value() - header_size - crypto::kAeadTagSize;

  // Recycled per-packet scratch: the vector's capacity survives across
  // packets (TransmitPacket moves the frames out but leaves the vector).
  std::vector<Frame>& frames = send_frames_scratch_;
  frames.clear();
  ByteCount new_bytes{};

  // 1. Piggyback a pending ACK for this path.
  if (path.ack_pending() && path.receiver().AnythingToAck()) {
    frames.emplace_back(BuildAck(paths_.at(path.id())));
    const std::size_t size = FrameWireSize(frames.back());
    if (size <= budget) {
      budget -= size;
    } else {
      ReclaimAckRanges(frames.back());
      frames.pop_back();
    }
  }

  // 2.+3. Control frames: pinned to this path first, then the shared
  // queue (PATHS, ADD_ADDRESS, requeued control).
  control_.FillPacket(path.id(), budget, frames);

  // 4. Stream data: either duplicates of frames just sent on another
  //    path, or fresh data pulled from the send streams.
  if (duplicate_of != nullptr) {
    for (const StreamFrame& frame : *duplicate_of) {
      const std::size_t size = FrameWireSize(Frame{frame});
      if (size > budget) break;
      budget -= size;
      frames.emplace_back(frame);
    }
  } else if (include_stream_data && !send_streams_.empty()) {
    // Round-robin over the streams, one chunk per stream per pass, so
    // concurrent objects progress together instead of serially.
    auto it = send_streams_.upper_bound(next_stream_to_serve_);
    if (it == send_streams_.end()) it = send_streams_.begin();
    bool any_progress = true;
    while (budget > kStreamFrameOverhead && any_progress) {
      any_progress = false;
      for (std::size_t i = 0; i < send_streams_.size(); ++i) {
        if (budget <= kStreamFrameOverhead) break;
        SendStream& stream = *it->second;
        const StreamId sid = it->first;
        ++it;
        if (it == send_streams_.end()) it = send_streams_.begin();
        StreamFrame frame;
        const ByteCount allowance = SendAllowance() >= new_bytes
                                        ? SendAllowance() - new_bytes
                                        : ByteCount{0};
        const auto result =
            stream.NextFrame(ByteCount{budget - kStreamFrameOverhead},
                             allowance, frame);
        if (!result.produced) continue;
        any_progress = true;
        next_stream_to_serve_ = sid;
        new_bytes += result.new_bytes;
        const std::size_t size = FrameWireSize(Frame{frame});
        assert(size <= budget);
        budget -= size;
        if (sent_stream_frames) sent_stream_frames->push_back(frame);
        frames.emplace_back(frame);
      }
    }
  }

  if (frames.empty()) return false;

  // 5. A pending STOP_WAITING rides along; it never makes a packet alone.
  if (path.stop_waiting_pending()) {
    frames.emplace_back(StopWaitingFrame{path.id(), path.least_unacked()});
    if (FrameWireSize(frames.back()) <= budget) {
      path.set_stop_waiting_pending(false);
    } else {
      frames.pop_back();
    }
  }

  bool retransmittable = false;
  for (const Frame& frame : frames) {
    if (IsRetransmittable(frame)) retransmittable = true;
  }
  new_stream_bytes_sent_ += new_bytes;
  stats_.stream_bytes_sent_new += new_bytes;
  TransmitPacket(path, frames, retransmittable,
                 /*handshake_cleartext=*/false);
  return true;
}

void PacketAssembler::TransmitPacket(Path& path, std::vector<Frame>& frames,
                                     bool retransmittable,
                                     bool handshake_cleartext) {
  if (tracer_ != nullptr) {
    for (const Frame& frame : frames) {
      tracer_->OnFrameSent(sim_.now(), path.id(), frame);
    }
  }
  PacketHeader header;
  header.cid = cid_;
  header.path_id = path.id();
  header.multipath = config_.multipath;
  header.handshake = handshake_cleartext;
  header.packet_number = path.AllocatePacketNumber();

  // Single-buffer assembly: header and frames are encoded into one
  // writer and the payload is sealed where it lies. The buffer comes from
  // the simulator's free list, and the network returns it there once the
  // datagram is delivered or dropped.
  BufWriter writer(sim_.TakeBuffer(),
                   config_.max_packet_size.value() + crypto::kAeadTagSize);
  EncodeHeader(header, path.largest_acked(), writer);
  const std::size_t header_size = writer.size();

  for (Frame& frame : frames) {
    const auto* stream = std::get_if<StreamFrame>(&frame);
    if (stream == nullptr) {
      EncodeFrame(frame, writer);
      ReclaimAckRanges(frame);
      continue;
    }
    // A descriptor: the payload goes from the stream's source straight
    // into the packet (new data, retransmissions and duplicates alike).
    EncodeStreamFrameHeader(*stream, writer);
    send_streams_.at(stream->stream_id)->source().Read(
        stream->offset, writer.AppendSpan(stream->length.value()));
  }

  if (!handshake_cleartext) {
    assert(seal_ != nullptr);
    writer.WriteZeroes(crypto::kAeadTagSize);  // tag slot
    const std::span<std::uint8_t> buf = writer.mutable_span();
    seal_->SealInPlace(header.multipath ? header.path_id : PathId{0},
                       header.packet_number, buf.subspan(0, header_size),
                       buf.subspan(header_size));
  }
  assert(writer.size() <= config_.max_packet_size + 64);
  const std::size_t packet_size = writer.size();

  if (retransmittable) {
    std::vector<Frame>& tracked = path.OnPacketSent(
        header.packet_number, sim_.now(), ByteCount{packet_size});
    for (Frame& frame : frames) {
      if (IsRetransmittable(frame)) tracked.push_back(std::move(frame));
    }
    ConsumePaceTokens(paths_.at(path.id()), ByteCount{packet_size});
    recovery_.OnPacketTracked(path);
  }
  ++stats_.packets_sent;
  delegate_.OnPacketTransmitted();
  if (tracer_ != nullptr) {
    tracer_->OnPacketSent(sim_.now(), path.id(), header.packet_number,
                          ByteCount{packet_size}, retransmittable);
  }
  send_(path.local_address(), path.remote_address(), writer.Take());
}

}  // namespace mpq::quic
