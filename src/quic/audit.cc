#include "quic/audit.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "cc/congestion.h"
#include "quic/connection.h"

namespace mpq::quic {

// Violations are collected (not thrown, not aborted-on) so the same
// implementation serves both MPQ_AUDIT_CHECK (abort at first bad event)
// and the model checker's CheckAll (report and keep exploring).
class Auditor::Impl {
 public:
  Impl(const Connection& conn, std::string* out) : conn_(conn), out_(out) {}

  bool ok() const { return ok_; }

  void Check();
  void CheckPath(const Path& path);

 private:
  void Fail(const char* what);

  const Connection& conn_;
  std::string* out_;
  bool ok_ = true;
};

void Auditor::Impl::Fail(const char* what) {
  ok_ = false;
  if (out_ == nullptr) return;
  char line[160];
  std::snprintf(line, sizeof(line), "MPQ_AUDIT violation (cid=%" PRIu64
                "): %s\n", conn_.cid(), what);
  out_->append(line);
}

#define AUDIT(cond, what)                  \
  do {                                     \
    if (!(cond)) Fail(what);               \
  } while (0)

void Auditor::Impl::CheckPath(const Path& path) {
  const Connection& conn = conn_;
  // Packet-number space: allocation is monotonic starting at 1, and
  // nothing tracked or acked can sit at or beyond the next allocation.
  AUDIT(path.next_pn_ >= PacketNumber{1}, "path next_pn below 1");
  AUDIT(path.largest_acked_ < path.next_pn_,
        "largest_acked >= next unallocated packet number");

  ByteCount tracked_in_flight{0};
  PacketNumber prev{0};
  path.sent_.ForEach([&](const SentPacket& packet) {
    AUDIT(packet.pn >= path.sent_.base() && packet.pn < path.sent_.end(),
          "sent_ record outside the ring's window");
    AUDIT(packet.pn > prev, "sent_ packet numbers not strictly increasing");
    AUDIT(packet.pn < path.next_pn_,
          "sent_ holds an unallocated packet number");
    tracked_in_flight += packet.bytes;
    prev = packet.pn;
  });
  if (!path.sent_.empty()) {
    AUDIT(path.sent_.front().pn == path.sent_.base(),
          "sent_ ring's oldest record is not at its base");
  }
  AUDIT(path.congestion_->bytes_in_flight() == tracked_in_flight,
        "bytes_in_flight != sum of tracked sent packets");

  // Congestion window floor: every controller collapses to at most
  // kMinWindowPackets * mss on loss/RTO, never below it. All controllers
  // in this stack are built with mss = config.max_packet_size.
  AUDIT(path.congestion_->congestion_window() >=
            cc::kMinWindowPackets * conn.config_.max_packet_size.value(),
        "congestion window below the minimum window");

  // Receive-side ACK ranges: descending, within-range, disjoint and
  // coalesced (adjacent ranges must have been merged on insert).
  const auto ranges = path.receiver_.BuildAckRanges();
  if (!ranges.empty()) {
    AUDIT(ranges.front().largest == path.receiver_.largest_received(),
          "first ACK range does not end at largest_received");
  }
  // STOP_WAITING floor: never above what arrived, and nothing wholly
  // below it is kept but the newest range.
  const PacketNumber floor = path.receiver_.floor();
  AUDIT(floor <= path.receiver_.largest_received() + 1,
        "STOP_WAITING floor above largest_received + 1");
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    AUDIT(i == 0 || ranges[i].largest >= floor,
          "ACK range wholly below the STOP_WAITING floor kept");
    AUDIT(ranges[i].smallest <= ranges[i].largest,
          "ACK range with smallest > largest");
    if (i + 1 < ranges.size()) {
      AUDIT(ranges[i + 1].largest + 1 < ranges[i].smallest,
            "ACK ranges overlapping, unsorted or uncoalesced");
    }
  }
}

void Auditor::Impl::Check() {
  const Connection& conn = conn_;
  for (const auto& [id, path] : conn.paths_) {
    AUDIT(path != nullptr, "paths_ entry without a path");
    AUDIT(path->id() == id, "paths_ key disagrees with path id");
    if (path != nullptr) CheckPath(*path);
  }

  // Send-side flow control: new stream bytes on the wire never exceed
  // what the peer advertised, at connection level or per stream.
  AUDIT(conn.assembler_->new_stream_bytes_sent_ <= conn.flow_.peer_max_data(),
        "sent beyond the peer's connection-level flow-control limit");
  for (const auto& [id, stream] : conn.send_streams_) {
    AUDIT(stream->max_offset_sent() <= stream->peer_max_stream_data_,
          "sent beyond the peer's stream-level flow-control limit");
    for (const auto& [offset, length] : stream->retransmit_) {
      AUDIT(offset + length.value() <= stream->max_offset_sent() ||
                (stream->fin_sent_ && offset + length.value() <=
                                          stream->source_->size()),
            "retransmission range beyond the bytes ever sent");
    }
  }

  // Receive side: the peer never wrote past what we advertised, and the
  // delivered prefix of each stream is consistent with what arrived.
  AUDIT(conn.dispatcher_->total_highest_received_ <= conn.flow_.local_max_data(),
        "peer wrote beyond our advertised connection-level limit");
  AUDIT(conn.flow_.consumed_ <= conn.flow_.local_max_data(),
        "consumed beyond our own advertisement");
  for (const auto& [id, stream] : conn.dispatcher_->recv_streams_) {
    AUDIT(stream->delivered_offset() <= stream->highest_received(),
          "delivered beyond the highest received offset");
    if (stream->fin_known()) {
      AUDIT(stream->highest_received() <= stream->final_size(),
            "received data beyond the stream's final size");
    }
  }
}

#undef AUDIT

bool Auditor::CheckAll(const Connection& conn, std::string* violations) {
  Impl impl(conn, violations);
  impl.Check();
  return impl.ok();
}

void Auditor::Check(const Connection& conn) {
  std::string why;
  if (!CheckAll(conn, &why)) {
    std::fputs(why.c_str(), stderr);
    std::abort();
  }
}

}  // namespace mpq::quic
