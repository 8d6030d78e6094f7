#include "tcpsim/segment.h"

namespace mpq::tcp {

std::size_t SegmentHeaderSize(const TcpSegment& segment) {
  // cid(8) + subflow(1) + flags(1) + seq(4) + ack(4) + window(3 varint
  // typical) + data_ack + sack count + blocks + dss + payload length.
  std::size_t size = 8 + 1 + 1 + 4 + 4;
  size += VarintSize(segment.window);
  size += VarintSize(segment.data_ack);
  size += 1;  // SACK count
  for (const auto& block : segment.sacks) {
    size += VarintSize(block.start) + VarintSize(block.end - block.start);
  }
  size += 1;  // DSS presence byte
  if (segment.dss.has_value()) size += 8;
  size += 2;  // payload length
  return size;
}

void EncodeSegmentHeader(const TcpSegment& segment, std::size_t payload_size,
                         BufWriter& out) {
  out.WriteU64(segment.cid);
  out.WriteU8(segment.subflow);
  out.WriteU8(segment.flags);
  out.WriteU32(static_cast<std::uint32_t>(segment.seq));
  out.WriteU32(static_cast<std::uint32_t>(segment.ack));
  out.WriteVarint(segment.window);
  out.WriteVarint(segment.data_ack);
  out.WriteU8(static_cast<std::uint8_t>(segment.sacks.size()));
  for (const auto& block : segment.sacks) {
    out.WriteVarint(block.start);
    out.WriteVarint(block.end - block.start);
  }
  out.WriteU8(segment.dss.has_value() ? 1 : 0);
  if (segment.dss.has_value()) out.WriteU64(segment.dss->dsn);
  out.WriteU16(static_cast<std::uint16_t>(payload_size));
}

void EncodeSegment(const TcpSegment& segment, BufWriter& out) {
  EncodeSegmentHeader(segment, segment.payload.size(), out);
  out.WriteBytes(segment.payload);
}

bool DecodeSegment(BufReader& in, TcpSegment& out) {
  std::uint32_t seq32 = 0, ack32 = 0;
  if (!in.ReadU64(out.cid) || !in.ReadU8(out.subflow) ||
      !in.ReadU8(out.flags) || !in.ReadU32(seq32) || !in.ReadU32(ack32) ||
      !in.ReadVarint(out.window) || !in.ReadVarint(out.data_ack)) {
    return false;
  }
  out.seq = seq32;
  out.ack = ack32;
  std::uint8_t sack_count = 0;
  if (!in.ReadU8(sack_count)) return false;
  if (sack_count > 64) return false;  // sanity bound
  out.sacks.clear();
  for (std::uint8_t i = 0; i < sack_count; ++i) {
    std::uint64_t start = 0, len = 0;
    if (!in.ReadVarint(start) || !in.ReadVarint(len)) return false;
    out.sacks.push_back({start, start + len});
  }
  std::uint8_t has_dss = 0;
  if (!in.ReadU8(has_dss)) return false;
  if (has_dss != 0) {
    DssMapping dss;
    if (!in.ReadU64(dss.dsn)) return false;
    out.dss = dss;
  } else {
    out.dss.reset();
  }
  std::uint16_t len = 0;
  if (!in.ReadU16(len)) return false;
  return in.ReadSpan(len, out.payload);
}

}  // namespace mpq::tcp
