// TCP/MPTCP segment wire format for the baseline stack.
//
// This models the Linux TCP + MPTCP v0.91 baseline of the paper's
// evaluation (§4.1). The serialized layout stands in for a TCP header
// plus options, with byte counts close to the real thing:
//   * cumulative ACK and a receive window in EVERY segment (§2 contrasts
//     this with QUIC's occasional WINDOW_UPDATE),
//   * at most 3 SACK blocks (the option-space limit the paper blames for
//     TCP's weaker loss recovery, §4.1 "Low-BDP-losses"),
//   * for MPTCP, a DSS option carrying the data sequence number (DSN)
//     mapping and a connection-level DATA_ACK,
//   * MP_CAPABLE / MP_JOIN handshake flags; a connection token (`cid`)
//     standing in for the port pair + MPTCP token demultiplexing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buf.h"
#include "common/types.h"

namespace mpq::tcp {

inline constexpr int kMaxSackBlocks = 3;

enum SegmentFlags : std::uint8_t {
  kFlagSyn = 0x01,
  kFlagAck = 0x02,
  kFlagFin = 0x04,  // subflow-level FIN (unused by the experiments)
  kFlagMpJoin = 0x08,
  kFlagDataFin = 0x10,  // MPTCP DATA_FIN: end of the connection stream
};

struct SackBlock {
  std::uint64_t start = 0;  // subflow sequence, inclusive
  std::uint64_t end = 0;    // exclusive
};

/// DSS option: maps this segment's payload into the connection-level
/// data sequence space.
struct DssMapping {
  std::uint64_t dsn = 0;  // DSN of the first payload byte
};

struct TcpSegment {
  std::uint64_t cid = 0;     // connection token (demux)
  std::uint8_t subflow = 0;  // subflow id
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;     // subflow sequence of first payload byte
  std::uint64_t ack = 0;     // cumulative subflow ACK (valid if kFlagAck)
  std::uint64_t window = 0;  // receive window (right edge = data_ack+window)
  std::uint64_t data_ack = 0;  // connection-level cumulative ACK (MPTCP)
  std::vector<SackBlock> sacks;
  std::optional<DssMapping> dss;
  /// A decoded segment's payload views the datagram it came from and
  /// lives as long as that datagram. A sender leaves it empty and writes
  /// its payload into the datagram itself, after EncodeSegmentHeader.
  std::span<const std::uint8_t> payload;

  bool has(SegmentFlags f) const { return (flags & f) != 0; }
};

/// Serialized size of everything before the payload bytes; with the
/// payload, the exact size the simulator charges (plus IP overhead).
std::size_t SegmentHeaderSize(const TcpSegment& segment);

/// Writes everything before the payload of a segment that carries
/// `payload_size` bytes; the caller appends exactly that many next.
void EncodeSegmentHeader(const TcpSegment& segment, std::size_t payload_size,
                         BufWriter& out);

/// The header, then `segment.payload`.
void EncodeSegment(const TcpSegment& segment, BufWriter& out);

/// Returns false on malformed input.
bool DecodeSegment(BufReader& in, TcpSegment& out);

}  // namespace mpq::tcp
