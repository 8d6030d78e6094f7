// Aggregate connection counters. Split out of connection.h so every
// transport layer (recovery, assembler, dispatcher) can update its own
// counters without seeing the Connection composer.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace mpq::quic {

/// Aggregate counters the experiment harness reads after a run. Each
/// layer owns the counters for the events it produces: the assembler
/// counts packets sent, the dispatcher counts receive-side outcomes, the
/// recovery manager counts RTOs and retransmissions.
struct ConnectionStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_decrypt_failed = 0;
  std::uint64_t packets_duplicate = 0;
  /// STREAM frames dropped because they wrote past our advertised receive
  /// window (peer protocol violation — or forged traffic).
  std::uint64_t flow_control_overruns = 0;
  /// ACK frames dropped because they acknowledged packet numbers this end
  /// never sent (optimistic ACK — peer protocol violation or forgery).
  std::uint64_t invalid_acks_ignored = 0;
  /// STOP_WAITING frames dropped because their floor lay above every
  /// packet received on that path (peer protocol violation or forgery).
  std::uint64_t invalid_stop_waitings_ignored = 0;
  std::uint64_t duplicated_scheduler_packets = 0;
  std::uint64_t rto_events = 0;
  /// Frames from lost packets re-queued for retransmission, and their
  /// total wire size — the retransmission overhead of the connection
  /// (§3: frames may be retransmitted on any path).
  std::uint64_t frames_retransmitted = 0;
  ByteCount bytes_retransmitted{};
  ByteCount stream_bytes_sent_new{};
  ByteCount stream_bytes_received{};
};

}  // namespace mpq::quic
