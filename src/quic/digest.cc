// Connection::StateDigest — the canonical state hash behind the model
// checker's pruning and determinism checks (docs/MODEL_CHECKING.md).
//
// What goes in: every field that future protocol behavior is a function
// of — packet-number spaces, tracked in-flight packets, ACK ranges,
// stream offsets and retransmission ranges, flow-control limits, path
// status flags, queued control frames, congestion windows.
//
// What stays out, deliberately:
//   - observability state (tracers, ConnectionStats):
//     attaching a qlog tracer must not change the digest, or the
//     determinism theorem would be vacuous (tests/digest_test.cc);
//   - raw timestamps and RTT estimates: they differ across every
//     interleaving, so hashing them would make all states unique and
//     disable pruning. The explorer separately folds the *relative*
//     shape of the pending event queue into its own digest, which is
//     where timing differences that matter re-enter.
//
// Lives next to quic/audit.cc and shares the Auditor friendship — the
// digest walks exactly the private state the invariant checker audits.
#include <cstdint>

#include "cc/congestion.h"
#include "quic/audit.h"
#include "quic/connection.h"

namespace mpq::quic {

namespace {

// FNV-1a, 64-bit. Not cryptographic — collisions merely make the
// explorer prune a state it should have expanded, never miss a
// violation on the trace it does explore.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

class Hasher {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xffU;
      hash_ *= kFnvPrime;
    }
  }
  void Bool(bool b) { U64(b ? 1 : 0); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

void HashAddress(Hasher& h, const sim::Address& a) {
  h.U64((static_cast<std::uint64_t>(a.node) << 16) | a.iface);
}

void HashFrame(Hasher& h, const Frame& frame) {
  // Queued control frames: the variant alternative plus the coarse
  // payload identity is enough to distinguish protocol states.
  h.U64(frame.index());
  if (const auto* wu = std::get_if<WindowUpdateFrame>(&frame)) {
    h.U64(wu->stream_id.value());
    h.U64(wu->max_data.value());
  } else if (const auto* add = std::get_if<AddAddressFrame>(&frame)) {
    for (const auto& address : add->addresses) HashAddress(h, address);
  } else if (const auto* rm = std::get_if<RemoveAddressFrame>(&frame)) {
    for (const auto& address : rm->addresses) HashAddress(h, address);
  } else if (const auto* paths = std::get_if<PathsFrame>(&frame)) {
    h.U64(paths->paths.size());
    for (const auto& entry : paths->paths) {
      h.U64(entry.path_id.value());
      h.Bool(entry.status == PathStatus::kPotentiallyFailed);
    }
  }
}

void HashPath(Hasher& h, const Path& path) {
  h.U64(path.id().value());
  HashAddress(h, path.local_address());
  HashAddress(h, path.remote_address());
  h.U64(path.largest_sent().value());
  h.U64(path.largest_acked().value());
  h.U64(static_cast<std::uint64_t>(path.rto_count()));
  h.Bool(path.potentially_failed());
  h.Bool(path.remote_reported_failed());
  h.Bool(path.ack_pending());
  h.Bool(path.stop_waiting_pending());
  h.Bool(Auditor::SentSinceAck(path));
  h.U64(static_cast<std::uint64_t>(path.unacked_retransmittable_count()));
  h.U64(path.congestion().congestion_window().value());
  h.U64(path.congestion().bytes_in_flight().value());

  // Tracked in-flight packets (ascending packet numbers: deterministic).
  const SentPacketRing& sent = Auditor::SentPackets(path);
  h.U64(sent.size());
  sent.ForEach([&h](const SentPacket& packet) {
    h.U64(packet.pn.value());
    h.U64(packet.bytes.value());
    h.U64(packet.frames.size());
  });

  // Receive side: the STOP_WAITING floor and the coalesced ACK ranges.
  h.U64(path.receiver().floor().value());
  const auto ranges = path.receiver().BuildAckRanges();
  h.U64(ranges.size());
  for (const auto& range : ranges) {
    h.U64(range.smallest.value());
    h.U64(range.largest.value());
  }
}

}  // namespace

// Private-state accessors for the digest, routed through the Auditor
// friendship so Path/streams/dispatcher need no new friends.
const SentPacketRing& Auditor::SentPackets(const Path& path) {
  return path.sent_;
}

bool Auditor::SentSinceAck(const Path& path) { return path.sent_since_ack_; }

std::uint64_t Auditor::Digest(const Connection& conn) {
  Hasher h;
  h.Bool(conn.established_);
  h.Bool(conn.closed_);
  h.U64(conn.local_addresses_.size());
  for (const auto& a : conn.local_addresses_) HashAddress(h, a);
  h.U64(conn.peer_addresses_.size());
  for (const auto& a : conn.peer_addresses_) HashAddress(h, a);

  // Paths (ordered by id).
  h.U64(conn.paths_.size());
  for (const auto& [id, path] : conn.paths_) {
    h.U64(id.value());
    if (path != nullptr) HashPath(h, *path);
  }

  // Send streams and flow control.
  h.U64(conn.assembler_->new_stream_bytes_sent_.value());
  h.U64(conn.send_streams_.size());
  for (const auto& [id, stream] : conn.send_streams_) {
    h.U64(id.value());
    h.U64(stream->max_offset_sent().value());
    h.Bool(stream->fin_sent_);
    h.Bool(stream->fin_lost_);
    h.U64(stream->peer_max_stream_data_.value());
    h.U64(stream->retransmit_.size());
    for (const auto& [offset, length] : stream->retransmit_) {
      h.U64(offset.value());
      h.U64(length.value());
    }
  }
  h.U64(conn.flow_.consumed_.value());
  h.U64(conn.flow_.local_max_data_.value());
  h.U64(conn.flow_.peer_max_data_.value());
  h.Bool(conn.blocked_reported_);

  // Receive streams.
  h.U64(conn.dispatcher_->total_highest_received_.value());
  h.U64(conn.dispatcher_->recv_streams_.size());
  for (const auto& [id, stream] : conn.dispatcher_->recv_streams_) {
    h.U64(id.value());
    h.U64(stream->delivered_offset().value());
    h.U64(stream->highest_received().value());
    h.U64(stream->buffered_bytes().value());
    h.Bool(stream->fin_known());
    h.U64(stream->final_size().value());
  }
  h.U64(conn.dispatcher_->stream_advertised_.size());
  for (const auto& [id, limit] : conn.dispatcher_->stream_advertised_) {
    h.U64(id.value());
    h.U64(limit.value());
  }

  // Queued control frames (both tiers, FIFO order).
  h.U64(conn.control_.shared_.size());
  for (const auto& frame : conn.control_.shared_) HashFrame(h, frame);
  h.U64(conn.control_.pinned_.size());
  for (const auto& [path, frames] : conn.control_.pinned_) {
    h.U64(path.value());
    h.U64(frames.size());
    for (const auto& frame : frames) HashFrame(h, frame);
  }

  return h.hash();
}

std::uint64_t Connection::StateDigest() const { return Auditor::Digest(*this); }

}  // namespace mpq::quic
