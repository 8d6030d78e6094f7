#include "quic/scheduler.h"

#include <algorithm>

namespace mpq::quic {

std::vector<Path*>& Scheduler::Candidates(const std::vector<Path*>& paths,
                                          ByteCount bytes) {
  candidates_.clear();
  for (const bool usable : {true, false}) {
    for (Path* p : paths) {
      if (p->Usable() == usable && p->congestion().CanSend(bytes)) {
        candidates_.push_back(p);
      }
    }
    if (!candidates_.empty()) break;
  }
  return candidates_;
}

std::vector<Path*> Scheduler::DuplicationTargets(const std::vector<Path*>&,
                                                 const Path*, ByteCount) {
  return {};
}

bool Scheduler::WantsProbe(const Path&) const { return false; }

// ---------------------------------------------------------------------------

Path* LowestRttScheduler::SelectPath(const std::vector<Path*>& paths,
                                     ByteCount bytes) {
  const std::vector<Path*>& candidates = Candidates(paths, bytes);
  if (candidates.empty()) return nullptr;
  // Prefer measured paths by smoothed RTT; fall back to the lowest path
  // id (the initial path) when nothing is measured yet.
  Path* best = nullptr;
  for (Path* p : candidates) {
    if (!p->rtt().has_sample()) continue;
    if (best == nullptr || p->rtt().smoothed() < best->rtt().smoothed()) {
      best = p;
    }
  }
  if (best != nullptr) {
    last_reason_ = "lowest-rtt";
    return best;
  }
  last_reason_ = "rtt-unknown-initial";
  return *std::min_element(candidates.begin(), candidates.end(),
                           [](const Path* a, const Path* b) {
                             return a->id() < b->id();
                           });
}

std::vector<Path*> LowestRttScheduler::DuplicationTargets(
    const std::vector<Path*>& paths, const Path* chosen, ByteCount bytes) {
  // §3: duplicate onto usable paths whose characteristics are unknown so
  // they can be used immediately without risking head-of-line blocking.
  std::vector<Path*> targets;
  for (Path* p : paths) {
    if (p == chosen || p->rtt().has_sample() || !p->Usable()) continue;
    if (!p->congestion().CanSend(bytes)) continue;
    targets.push_back(p);
  }
  return targets;
}

// ---------------------------------------------------------------------------

Path* PingFirstScheduler::SelectPath(const std::vector<Path*>& paths,
                                     ByteCount bytes) {
  last_reason_ = "ping-first";
  const std::vector<Path*>& candidates = Candidates(paths, bytes);
  Path* best = nullptr;
  bool any_measured = false;
  for (Path* p : candidates) {
    if (p->rtt().has_sample()) any_measured = true;
  }
  for (Path* p : candidates) {
    // Until the first path is measured nothing would ever send; allow the
    // initial path through unmeasured.
    if (any_measured && !p->rtt().has_sample()) continue;
    if (best == nullptr ||
        (p->rtt().has_sample() && best->rtt().has_sample() &&
         p->rtt().smoothed() < best->rtt().smoothed()) ||
        (!best->rtt().has_sample() && p->rtt().has_sample())) {
      best = p;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------

Path* RoundRobinScheduler::SelectPath(const std::vector<Path*>& paths,
                                      ByteCount bytes) {
  last_reason_ = "round-robin";
  std::vector<Path*>& candidates = Candidates(paths, bytes);
  if (candidates.empty()) return nullptr;
  std::sort(candidates.begin(), candidates.end(),
            [](const Path* a, const Path* b) { return a->id() < b->id(); });
  Path* chosen = candidates[next_ % candidates.size()];
  ++next_;
  return chosen;
}

// ---------------------------------------------------------------------------

Path* RedundantScheduler::SelectPath(const std::vector<Path*>& paths,
                                     ByteCount bytes) {
  last_reason_ = "redundant";
  const std::vector<Path*>& candidates = Candidates(paths, bytes);
  if (candidates.empty()) return nullptr;
  Path* best = nullptr;
  for (Path* p : candidates) {
    if (best == nullptr ||
        (p->rtt().has_sample() &&
         (!best->rtt().has_sample() ||
          p->rtt().smoothed() < best->rtt().smoothed()))) {
      best = p;
    }
  }
  return best;
}

std::vector<Path*> RedundantScheduler::DuplicationTargets(
    const std::vector<Path*>& paths, const Path* chosen, ByteCount bytes) {
  std::vector<Path*> targets;
  for (Path* p : paths) {
    if (p == chosen || !p->Usable()) continue;
    if (!p->congestion().CanSend(bytes)) continue;
    targets.push_back(p);
  }
  return targets;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Scheduler> MakeScheduler(SchedulerType type) {
  switch (type) {
    case SchedulerType::kLowestRtt:
      return std::make_unique<LowestRttScheduler>();
    case SchedulerType::kPingFirst:
      return std::make_unique<PingFirstScheduler>();
    case SchedulerType::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerType::kRedundant:
      return std::make_unique<RedundantScheduler>();
  }
  return std::make_unique<LowestRttScheduler>();
}

}  // namespace mpq::quic
