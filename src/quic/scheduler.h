// MPQUIC packet schedulers (§3 "Packet Scheduling").
//
// The default scheduler is the paper's: prefer the usable path with the
// lowest smoothed RTT whose congestion window has room (the Linux MPTCP
// default heuristic), with one MPQUIC twist — a path whose RTT is still
// unknown is not trusted with exclusive traffic; instead traffic sent on
// the chosen path is *duplicated* onto unknown-RTT paths so they warm up
// without risking head-of-line blocking.
//
// The alternatives the paper discusses and rejects (§3) are implemented
// as ablation strategies: ping-first (probe, wait one RTT) and
// round-robin; plus a fully redundant scheduler as an upper bound on
// duplication.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "quic/path.h"

namespace mpq::quic {

enum class SchedulerType {
  kLowestRtt,    // paper default: lowest RTT + duplicate-on-unknown
  kPingFirst,    // probe unknown paths, use only measured ones
  kRoundRobin,   // cycle through usable paths
  kRedundant,    // duplicate every data packet on every usable path
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Choose the path for the next data packet among `paths`. Only paths
  /// that are Usable() and whose congestion window fits `bytes` are
  /// candidates; if no usable path qualifies, potentially-failed paths
  /// with window room are considered as a last resort (a connection must
  /// not deadlock when every path looks bad). Returns nullptr if nothing
  /// can send.
  virtual Path* SelectPath(const std::vector<Path*>& paths,
                           ByteCount bytes) = 0;

  /// Paths that should receive a duplicate of the stream frames just sent
  /// on `chosen` (the §3 "duplicate traffic while unknown" mechanism).
  virtual std::vector<Path*> DuplicationTargets(
      const std::vector<Path*>& paths, const Path* chosen, ByteCount bytes);

  /// True if the scheduler wants a PING probe on `path` before using it
  /// (ping-first ablation only).
  virtual bool WantsProbe(const Path& path) const;

  virtual std::string name() const = 0;

  /// Why the last SelectPath call chose its path (a static string such as
  /// "lowest-rtt" or "rtt-unknown-initial"). Valid until the next call;
  /// feeds the tracer's scheduler-decision events.
  const char* last_reason() const { return last_reason_; }

 protected:
  /// Candidates: usable, window room; falls back to failed paths. The
  /// list is member scratch, recycled across calls (one per packet).
  std::vector<Path*>& Candidates(const std::vector<Path*>& paths,
                                 ByteCount bytes);

  const char* last_reason_ = "none";

 private:
  std::vector<Path*> candidates_;
};

std::unique_ptr<Scheduler> MakeScheduler(SchedulerType type);

class LowestRttScheduler : public Scheduler {
 public:
  Path* SelectPath(const std::vector<Path*>& paths, ByteCount bytes) override;
  std::vector<Path*> DuplicationTargets(const std::vector<Path*>& paths,
                                        const Path* chosen,
                                        ByteCount bytes) override;
  std::string name() const override { return "lowest-rtt"; }
};

class PingFirstScheduler : public Scheduler {
 public:
  Path* SelectPath(const std::vector<Path*>& paths, ByteCount bytes) override;
  std::vector<Path*> DuplicationTargets(const std::vector<Path*>&,
                                        const Path*, ByteCount) override {
    return {};
  }
  bool WantsProbe(const Path& path) const override {
    return !path.rtt().has_sample();
  }
  std::string name() const override { return "ping-first"; }
};

class RoundRobinScheduler : public Scheduler {
 public:
  Path* SelectPath(const std::vector<Path*>& paths, ByteCount bytes) override;
  std::vector<Path*> DuplicationTargets(const std::vector<Path*>&,
                                        const Path*, ByteCount) override {
    return {};
  }
  std::string name() const override { return "round-robin"; }

 private:
  std::size_t next_ = 0;
};

class RedundantScheduler : public Scheduler {
 public:
  Path* SelectPath(const std::vector<Path*>& paths, ByteCount bytes) override;
  std::vector<Path*> DuplicationTargets(const std::vector<Path*>& paths,
                                        const Path* chosen,
                                        ByteCount bytes) override;
  std::string name() const override { return "redundant"; }
};

}  // namespace mpq::quic
