// (MP)QUIC wire format: public packet header and frames.
//
// Follows the Google-QUIC lineage the paper builds on (§2): each packet
// has a small unencrypted public header — flags, Connection ID, Packet
// Number, and (the MPQUIC extension, §3 "Path Identification") an explicit
// Path ID — followed by an encrypted payload that is a sequence of frames.
// Frames carry all data and control information; packets are only their
// containers, which is what lets MPQUIC retransmit frames on a different
// path than the lost packet's (§3 "Packet Scheduling").
//
// Multipath-specific elements implemented exactly as in §3:
//   * Path ID byte in the public header (explicit path identification),
//   * per-path packet-number spaces (PNs here are always path-relative),
//   * ACK frames carrying the Path ID they acknowledge,
//   * STOP_WAITING frames carrying the Path ID whose ACK history they
//     bound (gQUIC's STOP_WAITING, per path space),
//   * ADD_ADDRESS frame advertising a host's addresses,
//   * PATHS frame carrying per-path status/RTT for fast failover.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/buf.h"
#include "common/types.h"
#include "sim/net.h"

namespace mpq::quic {

/// Maximum UDP payload we produce (Google QUIC used 1350 for IPv4).
inline constexpr std::size_t kMaxPacketSize = 1350;

/// Version tag negotiated in the handshake.
inline constexpr std::uint32_t kVersionMpq1 = 0x4D510001;  // "MQ" 00 01

// ---------------------------------------------------------------------------
// Public header

enum HeaderFlags : std::uint8_t {
  kFlagHandshake = 0x01,  // cleartext handshake packet (CHLO/SHLO)
  kFlagMultipath = 0x02,  // Path ID byte present
  // Bits 2-3: packet number length: 0 -> 1 byte, 1 -> 2, 2 -> 4, 3 -> 8.
  kFlagPnShift = 2,
  kFlagPnMask = 0x0C,
};

struct PacketHeader {
  ConnectionId cid = 0;
  PathId path_id{};
  PacketNumber packet_number{};
  bool handshake = false;
  bool multipath = false;  // whether the Path ID byte is on the wire
};

/// Bytes needed for the truncated packet-number encoding, chosen from the
/// distance to the largest acknowledged PN (QUIC's standard truncation).
std::size_t PacketNumberLength(PacketNumber full, PacketNumber largest_acked);

/// Append the public header. The packet number is truncated to
/// PacketNumberLength(pn, largest_acked) bytes.
void EncodeHeader(const PacketHeader& header, PacketNumber largest_acked,
                  BufWriter& out);

/// Parse a public header; returns the truncated PN and its length in
/// `pn_length` — the caller reconstructs the full PN with
/// DecodePacketNumber once it knows the path's receive state.
struct ParsedHeader {
  PacketHeader header;           // packet_number holds the *truncated* PN
  std::size_t pn_length = 0;     // bytes of PN on the wire
  std::size_t header_size = 0;   // total public-header bytes (the AEAD AAD)
};
bool DecodeHeader(BufReader& in, ParsedHeader& out);

/// Reconstruct a full packet number from its truncated form given the
/// largest packet number seen so far on the path (RFC 9000 appendix A).
PacketNumber DecodePacketNumber(PacketNumber largest_seen,
                                PacketNumber truncated,
                                std::size_t pn_length);

// ---------------------------------------------------------------------------
// Frames

enum class FrameType : std::uint8_t {
  kPadding = 0x00,
  kPing = 0x01,
  kConnectionClose = 0x02,
  kRstStream = 0x03,
  kWindowUpdate = 0x04,
  kBlocked = 0x05,
  kStopWaiting = 0x06,
  kHandshake = 0x07,
  kAddAddress = 0x08,
  kPaths = 0x09,
  kRemoveAddress = 0x0A,
  kAck = 0x10,
  kStream = 0x20,
};

struct PaddingFrame {
  std::uint32_t length = 1;  // run length of zero bytes (incl. type byte)
};

struct PingFrame {};

struct ConnectionCloseFrame {
  std::uint16_t error_code = 0;
  std::string reason;
};

struct RstStreamFrame {
  StreamId stream_id{};
  std::uint16_t error_code = 0;
  ByteCount final_offset{};
};

/// Advertises the receiver's flow-control limit. stream_id 0 addresses the
/// connection-level window (§2: QUIC's WINDOW_UPDATE; §3: MPQUIC sends
/// these on *all* paths to dodge receive-buffer deadlocks).
struct WindowUpdateFrame {
  StreamId stream_id{};  // 0 = connection level
  ByteCount max_data{};
};

struct BlockedFrame {
  StreamId stream_id{};  // 0 = connection level
};

enum class HandshakeMessageType : std::uint8_t { kChlo = 1, kShlo = 2 };

/// Simulated 1-RTT secure handshake (CHLO -> SHLO). The SHLO carries the
/// server's other addresses, standing in for early ADD_ADDRESS delivery.
struct HandshakeFrame {
  HandshakeMessageType message = HandshakeMessageType::kChlo;
  std::uint32_t version = kVersionMpq1;
  std::vector<std::uint8_t> nonce;          // 16 bytes in practice
  std::vector<sim::Address> peer_addresses; // SHLO only
};

/// §3 "Path Management": advertises all addresses a host owns, so a
/// dual-stack server can expose its second address over the first path.
struct AddAddressFrame {
  std::vector<sim::Address> addresses;
};

/// Withdraws addresses previously advertised (interface went away); the
/// peer stops scheduling traffic onto paths using them.
struct RemoveAddressFrame {
  std::vector<sim::Address> addresses;
};

enum class PathStatus : std::uint8_t { kActive = 0, kPotentiallyFailed = 1 };

/// §3 "Path Management" / §4.3: per-path performance and status snapshot;
/// lets the peer skip a broken path without waiting for its own RTO.
struct PathsFrame {
  struct Entry {
    PathId path_id{};
    PathStatus status = PathStatus::kActive;
    Duration srtt = 0;
  };
  std::vector<Entry> paths;
};

/// ACK for one path's packet-number space. `ranges` are descending,
/// non-adjacent [smallest, largest] closed intervals; at most
/// kMaxAckRanges of them on the wire. How far back they reach is bounded
/// by the peer's STOP_WAITING, not by that limit.
struct AckFrame {
  static constexpr std::size_t kMaxAckRanges = 256;

  struct Range {
    PacketNumber smallest{};
    PacketNumber largest{};
  };

  PathId path_id{};
  Duration ack_delay = 0;  // microseconds the ACK was withheld
  std::vector<Range> ranges;

  PacketNumber LargestAcked() const {
    return ranges.empty() ? PacketNumber{0} : ranges.front().largest;
  }
};

/// gQUIC's STOP_WAITING for one path's packet-number space: the sender
/// no longer waits for any packet below `least_unacked` on `path_id`, so
/// the receiver may stop reporting them in its ACK ranges. Not
/// retransmittable: the next ACK that still reports them re-arms it.
struct StopWaitingFrame {
  PathId path_id{};
  PacketNumber least_unacked{};
};

/// STREAM frame (§2). The offset alone orders the bytes, so a sender keeps
/// only this descriptor and rebuilds the frame from its immutable source,
/// on any path (§3): `data` stays empty and the assembler reads the payload
/// straight into the packet. DecodeFrame sets `data` to a view into the
/// opened plaintext, valid only while that packet is processed.
struct StreamFrame {
  StreamId stream_id{};
  ByteCount offset{};
  ByteCount length{};  // payload bytes
  bool fin = false;
  std::span<const std::uint8_t> data{};  // receive-side view, else empty
};

using Frame =
    std::variant<PaddingFrame, PingFrame, ConnectionCloseFrame,
                 RstStreamFrame, WindowUpdateFrame, BlockedFrame,
                 HandshakeFrame, AddAddressFrame, RemoveAddressFrame,
                 PathsFrame, AckFrame, StreamFrame, StopWaitingFrame>;

/// Serialized size of a frame, exact (used by the packet assembler to fit
/// frames into the MTU without trial encoding).
std::size_t FrameWireSize(const Frame& frame);

/// Append one frame. A STREAM frame's payload comes from its `data` view,
/// which must hold exactly `length` bytes.
void EncodeFrame(const Frame& frame, BufWriter& out);

/// Append a STREAM frame's header only; the caller appends its `length`
/// payload bytes right after it.
void EncodeStreamFrameHeader(const StreamFrame& frame, BufWriter& out);

/// Decode one frame. Returns false on malformed input.
bool DecodeFrame(BufReader& in, Frame& out);

/// Recycled range vectors for decoded ACK frames (see DecodePayload).
using AckRangeStore = std::vector<std::vector<AckFrame::Range>>;

/// Decode an entire payload into frames. Returns false if any frame is
/// malformed (the packet is then dropped whole). The ACK frames `out`
/// holds from the previous call give their range vectors to `spare`
/// before it is cleared, and decoded ACKs take theirs from it, so a
/// long-lived (out, spare) pair decodes ACKs without allocating.
bool DecodePayload(std::span<const std::uint8_t> payload,
                   std::vector<Frame>& out, AckRangeStore& spare);
/// As above, with range storage that lives for this call only.
bool DecodePayload(std::span<const std::uint8_t> payload,
                   std::vector<Frame>& out);

/// True for frame types whose loss must trigger retransmission. ACK,
/// STOP_WAITING and PADDING frames are not retransmittable (QUIC rule);
/// everything else is.
bool IsRetransmittable(const Frame& frame);

/// Stable human-readable wire-type name ("ACK", "STREAM", ...) — used by
/// the structured tracers (src/obs/) as event labels.
const char* FrameTypeName(const Frame& frame);

}  // namespace mpq::quic
