#include "quic/wire.h"

#include <cassert>
#include <string>

namespace mpq::quic {

namespace {

std::size_t AddressListSize(const std::vector<sim::Address>& addrs) {
  return 1 + addrs.size() * 4;
}

void EncodeAddressList(const std::vector<sim::Address>& addrs,
                       BufWriter& out) {
  out.WriteU8(static_cast<std::uint8_t>(addrs.size()));
  for (const auto& a : addrs) {
    out.WriteU16(a.node);
    out.WriteU16(a.iface);
  }
}

bool DecodeAddressList(BufReader& in, std::vector<sim::Address>& out) {
  std::uint8_t count = 0;
  if (!in.ReadU8(count)) return false;
  out.clear();
  out.reserve(count);
  for (std::uint8_t i = 0; i < count; ++i) {
    sim::Address a;
    if (!in.ReadU16(a.node) || !in.ReadU16(a.iface)) return false;
    out.push_back(a);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public header

std::size_t PacketNumberLength(PacketNumber full, PacketNumber largest_acked) {
  // The encoding must disambiguate at least twice the number of packets
  // in flight (RFC 9000 §17.1 logic).
  const PacketNumber distance =
      full > largest_acked ? full - largest_acked : PacketNumber{1};
  const PacketNumber needed = 2 * distance + 1;
  if (needed < (1ULL << 8)) return 1;
  if (needed < (1ULL << 16)) return 2;
  if (needed < (1ULL << 32)) return 4;
  return 8;
}

void EncodeHeader(const PacketHeader& header, PacketNumber largest_acked,
                  BufWriter& out) {
  const std::size_t pn_len =
      PacketNumberLength(header.packet_number, largest_acked);
  std::uint8_t flags = 0;
  if (header.handshake) flags |= kFlagHandshake;
  if (header.multipath) flags |= kFlagMultipath;
  const std::uint8_t pn_code =
      pn_len == 1 ? 0 : pn_len == 2 ? 1 : pn_len == 4 ? 2 : 3;
  flags |= static_cast<std::uint8_t>(pn_code << kFlagPnShift);
  out.WriteU8(flags);
  out.WriteU64(header.cid);
  // Wire format still carries one path-id byte (a MAX_PATHS negotiation
  // would widen it); PathId itself is 32-bit for the AEAD nonce.
  if (header.multipath) {
    out.WriteU8(static_cast<std::uint8_t>(header.path_id.value()));
  }
  switch (pn_len) {
    case 1:
      out.WriteU8(static_cast<std::uint8_t>(header.packet_number));
      break;
    case 2:
      out.WriteU16(static_cast<std::uint16_t>(header.packet_number));
      break;
    case 4:
      out.WriteU32(static_cast<std::uint32_t>(header.packet_number));
      break;
    default:
      out.WriteU64(header.packet_number.value());
      break;
  }
}

bool DecodeHeader(BufReader& in, ParsedHeader& out) {
  const std::size_t start = in.position();
  std::uint8_t flags = 0;
  if (!in.ReadU8(flags)) return false;
  out.header.handshake = (flags & kFlagHandshake) != 0;
  out.header.multipath = (flags & kFlagMultipath) != 0;
  if (!in.ReadU64(out.header.cid)) return false;
  out.header.path_id = PathId{0};
  if (out.header.multipath) {
    std::uint8_t path = 0;
    if (!in.ReadU8(path)) return false;
    out.header.path_id = PathId{path};
  }
  const std::uint8_t pn_code = (flags & kFlagPnMask) >> kFlagPnShift;
  out.pn_length = std::size_t{1} << pn_code;
  switch (out.pn_length) {
    case 1: {
      std::uint8_t v = 0;
      if (!in.ReadU8(v)) return false;
      out.header.packet_number = PacketNumber{v};
      break;
    }
    case 2: {
      std::uint16_t v = 0;
      if (!in.ReadU16(v)) return false;
      out.header.packet_number = PacketNumber{v};
      break;
    }
    case 4: {
      std::uint32_t v = 0;
      if (!in.ReadU32(v)) return false;
      out.header.packet_number = PacketNumber{v};
      break;
    }
    default: {
      std::uint64_t v = 0;
      if (!in.ReadU64(v)) return false;
      out.header.packet_number = PacketNumber{v};
      break;
    }
  }
  out.header_size = in.position() - start;
  return true;
}

PacketNumber DecodePacketNumber(PacketNumber largest_seen,
                                PacketNumber truncated,
                                std::size_t pn_length) {
  if (pn_length >= 8) return truncated;
  const std::uint64_t expected = largest_seen.value() + 1;
  const std::uint64_t win = std::uint64_t{1} << (8 * pn_length);
  const std::uint64_t half = win / 2;
  std::uint64_t candidate = (expected & ~(win - 1)) | truncated.value();
  if (candidate + half <= expected) {
    candidate += win;
  } else if (candidate > expected + half && candidate >= win) {
    candidate -= win;
  }
  return PacketNumber{candidate};
}

// ---------------------------------------------------------------------------
// Frames

std::size_t FrameWireSize(const Frame& frame) {
  struct Visitor {
    std::size_t operator()(const PaddingFrame& f) const { return f.length; }
    std::size_t operator()(const PingFrame&) const { return 1; }
    std::size_t operator()(const ConnectionCloseFrame& f) const {
      return 1 + 2 + VarintSize(f.reason.size()) + f.reason.size();
    }
    std::size_t operator()(const RstStreamFrame& f) const {
      return 1 + VarintSize(f.stream_id.value()) + 2 + VarintSize(f.final_offset.value());
    }
    std::size_t operator()(const WindowUpdateFrame& f) const {
      return 1 + VarintSize(f.stream_id.value()) + VarintSize(f.max_data.value());
    }
    std::size_t operator()(const BlockedFrame& f) const {
      return 1 + VarintSize(f.stream_id.value());
    }
    std::size_t operator()(const HandshakeFrame& f) const {
      return 1 + 1 + 4 + VarintSize(f.nonce.size()) + f.nonce.size() +
             AddressListSize(f.peer_addresses);
    }
    std::size_t operator()(const AddAddressFrame& f) const {
      return 1 + AddressListSize(f.addresses);
    }
    std::size_t operator()(const RemoveAddressFrame& f) const {
      return 1 + AddressListSize(f.addresses);
    }
    std::size_t operator()(const PathsFrame& f) const {
      std::size_t size = 1 + 1;
      for (const auto& p : f.paths) {
        size += 1 + 1 + VarintSize(static_cast<std::uint64_t>(p.srtt));
      }
      return size;
    }
    std::size_t operator()(const AckFrame& f) const {
      std::size_t size = 1 + 1 +
                         VarintSize(static_cast<std::uint64_t>(f.ack_delay)) +
                         VarintSize(f.ranges.size());
      if (f.ranges.empty()) return size;
      size += VarintSize(f.ranges.front().largest.value());
      size += VarintSize((f.ranges.front().largest - f.ranges.front().smallest).value());
      for (std::size_t i = 1; i < f.ranges.size(); ++i) {
        size += VarintSize((f.ranges[i - 1].smallest - f.ranges[i].largest).value());
        size += VarintSize((f.ranges[i].largest - f.ranges[i].smallest).value());
      }
      return size;
    }
    std::size_t operator()(const StreamFrame& f) const {
      return 1 + VarintSize(f.stream_id.value()) + VarintSize(f.offset.value()) +
             VarintSize(f.length.value()) + 1 + f.length.value();
    }
    std::size_t operator()(const StopWaitingFrame& f) const {
      return 1 + 1 + VarintSize(f.least_unacked.value());
    }
  };
  return std::visit(Visitor{}, frame);
}

void EncodeFrame(const Frame& frame, BufWriter& out) {
  struct Visitor {
    BufWriter& out;

    void operator()(const PaddingFrame& f) const {
      out.WriteZeroes(f.length);  // PADDING's type byte is itself zero
    }
    void operator()(const PingFrame&) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kPing));
    }
    void operator()(const ConnectionCloseFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kConnectionClose));
      out.WriteU16(f.error_code);
      out.WriteVarint(f.reason.size());
      out.WriteBytes(f.reason.data(), f.reason.size());
    }
    void operator()(const RstStreamFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kRstStream));
      out.WriteVarint(f.stream_id.value());
      out.WriteU16(f.error_code);
      out.WriteVarint(f.final_offset.value());
    }
    void operator()(const WindowUpdateFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kWindowUpdate));
      out.WriteVarint(f.stream_id.value());
      out.WriteVarint(f.max_data.value());
    }
    void operator()(const BlockedFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kBlocked));
      out.WriteVarint(f.stream_id.value());
    }
    void operator()(const HandshakeFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kHandshake));
      out.WriteU8(static_cast<std::uint8_t>(f.message));
      out.WriteU32(f.version);
      out.WriteVarint(f.nonce.size());
      out.WriteBytes(f.nonce);
      EncodeAddressList(f.peer_addresses, out);
    }
    void operator()(const AddAddressFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kAddAddress));
      EncodeAddressList(f.addresses, out);
    }
    void operator()(const RemoveAddressFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kRemoveAddress));
      EncodeAddressList(f.addresses, out);
    }
    void operator()(const PathsFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kPaths));
      out.WriteU8(static_cast<std::uint8_t>(f.paths.size()));
      for (const auto& p : f.paths) {
        out.WriteU8(static_cast<std::uint8_t>(p.path_id.value()));
        out.WriteU8(static_cast<std::uint8_t>(p.status));
        out.WriteVarint(static_cast<std::uint64_t>(p.srtt));
      }
    }
    void operator()(const AckFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kAck));
      out.WriteU8(static_cast<std::uint8_t>(f.path_id.value()));
      out.WriteVarint(static_cast<std::uint64_t>(f.ack_delay));
      out.WriteVarint(f.ranges.size());
      if (f.ranges.empty()) return;
      out.WriteVarint(f.ranges.front().largest.value());
      out.WriteVarint((f.ranges.front().largest - f.ranges.front().smallest).value());
      for (std::size_t i = 1; i < f.ranges.size(); ++i) {
        // Gap to the next (lower) range, then its length. Ranges are
        // non-adjacent so the gap is always >= 2.
        out.WriteVarint((f.ranges[i - 1].smallest - f.ranges[i].largest).value());
        out.WriteVarint((f.ranges[i].largest - f.ranges[i].smallest).value());
      }
    }
    void operator()(const StreamFrame& f) const {
      assert(f.data.size() == f.length.value());
      EncodeStreamFrameHeader(f, out);
      out.WriteBytes(f.data);
    }
    void operator()(const StopWaitingFrame& f) const {
      out.WriteU8(static_cast<std::uint8_t>(FrameType::kStopWaiting));
      out.WriteU8(static_cast<std::uint8_t>(f.path_id.value()));
      out.WriteVarint(f.least_unacked.value());
    }
  };
  std::visit(Visitor{out}, frame);
}

void EncodeStreamFrameHeader(const StreamFrame& frame, BufWriter& out) {
  out.WriteU8(static_cast<std::uint8_t>(FrameType::kStream));
  out.WriteVarint(frame.stream_id.value());
  out.WriteVarint(frame.offset.value());
  out.WriteVarint(frame.length.value());
  out.WriteU8(frame.fin ? 1 : 0);
}

namespace {

/// ACK body after the type byte, appended to `f.ranges` (which the
/// caller passes empty, possibly with recycled capacity).
bool DecodeAckBody(BufReader& in, AckFrame& f) {
  std::uint64_t delay = 0, count = 0;
  std::uint8_t pid = 0;
  if (!in.ReadU8(pid) || !in.ReadVarint(delay) || !in.ReadVarint(count)) {
    return false;
  }
  f.path_id = PathId{pid};
  f.ack_delay = static_cast<Duration>(delay);
  if (count > AckFrame::kMaxAckRanges) return false;
  if (count > 0) {
    std::uint64_t largest = 0, len = 0;
    if (!in.ReadVarint(largest) || !in.ReadVarint(len)) return false;
    if (len > largest) return false;
    f.ranges.push_back({PacketNumber{largest - len}, PacketNumber{largest}});
    for (std::uint64_t i = 1; i < count; ++i) {
      std::uint64_t gap = 0;
      if (!in.ReadVarint(gap) || !in.ReadVarint(len)) return false;
      const PacketNumber prev_smallest = f.ranges.back().smallest;
      if (gap < 2 || gap > prev_smallest) return false;
      const PacketNumber range_largest = prev_smallest - gap;
      if (len > range_largest) return false;
      f.ranges.push_back({range_largest - len, range_largest});
    }
  }
  return true;
}

/// DecodeFrame; an ACK takes its range vector from `spare` when one is
/// given and not empty.
bool DecodeOneFrame(BufReader& in, Frame& out, AckRangeStore* spare) {
  std::uint8_t type = 0;
  if (!in.ReadU8(type)) return false;

  if (type == static_cast<std::uint8_t>(FrameType::kPadding)) {
    // Coalesce the run of zero bytes into one PaddingFrame.
    PaddingFrame padding;
    std::uint8_t next = 0;
    while (in.remaining() > 0) {
      if (!in.ReadU8(next)) return false;
      if (next != 0) break;
      ++padding.length;
    }
    // The loop consumed one non-padding byte unless it hit the end — but
    // padding is only legal as trailing filler in this implementation, so
    // any non-zero byte after padding is malformed.
    if (next != 0) return false;
    out = padding;
    return true;
  }

  switch (static_cast<FrameType>(type)) {
    case FrameType::kPing:
      out = PingFrame{};
      return true;
    case FrameType::kConnectionClose: {
      ConnectionCloseFrame f;
      std::uint64_t len = 0;
      std::span<const std::uint8_t> reason;
      if (!in.ReadU16(f.error_code) || !in.ReadVarint(len) ||
          !in.ReadSpan(len, reason)) {
        return false;
      }
      f.reason.assign(reason.begin(), reason.end());
      out = std::move(f);
      return true;
    }
    case FrameType::kRstStream: {
      RstStreamFrame f;
      std::uint64_t sid = 0, off = 0;
      if (!in.ReadVarint(sid) || !in.ReadU16(f.error_code) ||
          !in.ReadVarint(off)) {
        return false;
      }
      f.stream_id = static_cast<StreamId>(sid);
      f.final_offset = ByteCount{off};
      out = f;
      return true;
    }
    case FrameType::kWindowUpdate: {
      WindowUpdateFrame f;
      std::uint64_t sid = 0, max_data = 0;
      if (!in.ReadVarint(sid) || !in.ReadVarint(max_data)) return false;
      f.stream_id = static_cast<StreamId>(sid);
      f.max_data = ByteCount{max_data};
      out = f;
      return true;
    }
    case FrameType::kBlocked: {
      BlockedFrame f;
      std::uint64_t sid = 0;
      if (!in.ReadVarint(sid)) return false;
      f.stream_id = static_cast<StreamId>(sid);
      out = f;
      return true;
    }
    case FrameType::kStopWaiting: {
      std::uint8_t pid = 0;
      std::uint64_t least_unacked = 0;
      if (!in.ReadU8(pid) || !in.ReadVarint(least_unacked)) return false;
      out = StopWaitingFrame{PathId{pid}, PacketNumber{least_unacked}};
      return true;
    }
    case FrameType::kHandshake: {
      HandshakeFrame f;
      std::uint8_t message = 0;
      std::uint64_t nonce_len = 0;
      if (!in.ReadU8(message) || !in.ReadU32(f.version) ||
          !in.ReadVarint(nonce_len) || !in.ReadBytes(nonce_len, f.nonce) ||
          !DecodeAddressList(in, f.peer_addresses)) {
        return false;
      }
      f.message = static_cast<HandshakeMessageType>(message);
      out = std::move(f);
      return true;
    }
    case FrameType::kAddAddress: {
      AddAddressFrame f;
      if (!DecodeAddressList(in, f.addresses)) return false;
      out = std::move(f);
      return true;
    }
    case FrameType::kRemoveAddress: {
      RemoveAddressFrame f;
      if (!DecodeAddressList(in, f.addresses)) return false;
      out = std::move(f);
      return true;
    }
    case FrameType::kPaths: {
      PathsFrame f;
      std::uint8_t count = 0;
      if (!in.ReadU8(count)) return false;
      f.paths.reserve(count);
      for (std::uint8_t i = 0; i < count; ++i) {
        PathsFrame::Entry e;
        std::uint8_t status = 0;
        std::uint64_t srtt = 0;
        std::uint8_t pid = 0;
        if (!in.ReadU8(pid) || !in.ReadU8(status) ||
            !in.ReadVarint(srtt)) {
          return false;
        }
        e.path_id = PathId{pid};
        e.status = static_cast<PathStatus>(status);
        e.srtt = static_cast<Duration>(srtt);
        f.paths.push_back(e);
      }
      out = std::move(f);
      return true;
    }
    case FrameType::kAck: {
      AckFrame f;
      if (spare != nullptr && !spare->empty()) {
        f.ranges = std::move(spare->back());
        spare->pop_back();
      }
      if (!DecodeAckBody(in, f)) return false;
      out = std::move(f);
      return true;
    }
    case FrameType::kStream: {
      StreamFrame f;
      std::uint64_t sid = 0, off = 0, len = 0;
      std::uint8_t fin = 0;
      if (!in.ReadVarint(sid) || !in.ReadVarint(off) || !in.ReadVarint(len) ||
          !in.ReadU8(fin) || !in.ReadSpan(len, f.data)) {
        return false;
      }
      f.stream_id = static_cast<StreamId>(sid);
      f.offset = ByteCount{off};
      f.length = ByteCount{len};
      f.fin = fin != 0;
      out = f;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool DecodeFrame(BufReader& in, Frame& out) {
  return DecodeOneFrame(in, out, nullptr);
}

bool DecodePayload(std::span<const std::uint8_t> payload,
                   std::vector<Frame>& out, AckRangeStore& spare) {
  for (Frame& frame : out) {
    if (auto* ack = std::get_if<AckFrame>(&frame)) {
      ack->ranges.clear();
      spare.push_back(std::move(ack->ranges));
    }
  }
  out.clear();
  BufReader reader(payload);
  while (!reader.AtEnd()) {
    Frame frame;
    if (!DecodeOneFrame(reader, frame, &spare)) return false;
    out.push_back(std::move(frame));
  }
  return true;
}

bool DecodePayload(std::span<const std::uint8_t> payload,
                   std::vector<Frame>& out) {
  AckRangeStore spare;
  return DecodePayload(payload, out, spare);
}

bool IsRetransmittable(const Frame& frame) {
  return !std::holds_alternative<AckFrame>(frame) &&
         !std::holds_alternative<StopWaitingFrame>(frame) &&
         !std::holds_alternative<PaddingFrame>(frame);
}

const char* FrameTypeName(const Frame& frame) {
  // Indexed by the Frame variant's alternatives, in declaration order.
  static constexpr const char* kNames[] = {
      "PADDING",     "PING",           "CONNECTION_CLOSE", "RST_STREAM",
      "WINDOW_UPDATE", "BLOCKED",      "HANDSHAKE",        "ADD_ADDRESS",
      "REMOVE_ADDRESS", "PATHS",       "ACK",              "STREAM",
      "STOP_WAITING"};
  static_assert(std::size(kNames) == std::variant_size_v<Frame>);
  return kNames[frame.index()];
}

}  // namespace mpq::quic
