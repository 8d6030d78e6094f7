// Debug invariant checker. The checks themselves (Auditor::CheckAll)
// compile in every configuration so tools — most importantly the
// mpq_model state-space explorer — can validate invariants and report
// instead of dying. What MPQ_AUDIT (CMake option of the same name)
// controls is only the per-event hook: MPQ_AUDIT_CHECK(conn) re-validates
// the connection's internal invariants after every timer and packet
// event:
//
//   - per-path packet-number monotonicity (sent PNs < next_pn_, the
//     largest acked never exceeds the largest sent),
//   - the congestion controller's bytes_in_flight equals the sum of the
//     tracked sent packets on that path,
//   - flow-control offsets never exceed the advertised limits, on either
//     side and at either level (connection and stream),
//   - receive-side ACK ranges are sorted, disjoint and coalesced,
//   - the STOP_WAITING floor is at most the largest received packet + 1,
//     and no range lies wholly below it except the newest,
//   - the congestion window never falls below the controller's floor.
//
// In an MPQ_AUDIT build a violation prints a diagnostic and aborts, so a
// ctest run turns silent state corruption into a hard failure at the
// first event that produced it. Without MPQ_AUDIT the macro expands to
// nothing and the hot path is untouched.
#pragma once

#include <cstdint>
#include <string>

#include "quic/path.h"

namespace mpq::quic {

class Connection;

class Auditor {
 public:
  /// Validate every invariant of `conn`; abort with a diagnostic on the
  /// first violation. This is MPQ_AUDIT_CHECK's target.
  static void Check(const Connection& conn);

  /// Non-aborting variant: validate every invariant and return true when
  /// all hold. On failure, appends one line per violation to
  /// `*violations` (when non-null) and returns false. Available in every
  /// build — the model checker reports violations as counterexamples
  /// instead of aborting the exploration.
  static bool CheckAll(const Connection& conn, std::string* violations);

  /// Canonical 64-bit digest of the connection's protocol state: packet
  /// numbers, in-flight tracking, ACK ranges, stream offsets, flow
  /// control, path status — everything behavior depends on, and nothing
  /// observability-related (tracers, stats) or wall-clock
  /// shaped. Two states with equal digests are treated as equivalent by
  /// the explorer's pruning; replaying a schedule must reproduce the
  /// identical digest sequence (the determinism check). Implemented in
  /// quic/digest.cc.
  static std::uint64_t Digest(const Connection& conn);

  /// Digest helper: read-only view of `path`'s tracked in-flight packets
  /// (private state exposed through the Auditor friendship).
  static const SentPacketRing& SentPackets(const Path& path);
  /// Digest helper: whether `path` sent a tracked packet after the last
  /// ACK that acknowledged something (what its next RTO decides on).
  static bool SentSinceAck(const Path& path);

 private:
  class Impl;
};

#if defined(MPQ_AUDIT)
#define MPQ_AUDIT_CHECK(conn) ::mpq::quic::Auditor::Check(conn)
#else
#define MPQ_AUDIT_CHECK(conn) ((void)0)
#endif

/// RAII helper: audits on scope exit, so event handlers with early
/// returns still get checked on every path out.
class AuditScope {
 public:
  explicit AuditScope(const Connection& conn) : conn_(conn) {}
  ~AuditScope() { MPQ_AUDIT_CHECK(conn_); }

  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  [[maybe_unused]] const Connection& conn_;
};

}  // namespace mpq::quic
