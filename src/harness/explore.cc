#include "harness/explore.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/source.h"
#include "obs/mux.h"
#include "obs/qlog.h"
#include "quic/audit.h"
#include "quic/endpoint.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace mpq::harness {

const char* ToString(ChoiceAction action) {
  switch (action) {
    case ChoiceAction::kFire:
      return "fire";
    case ChoiceAction::kDrop:
      return "drop";
    case ChoiceAction::kDup:
      return "dup";
  }
  return "?";
}

const char* ToString(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kInvariant:
      return "invariant";
    case ViolationKind::kLiveness:
      return "liveness";
    case ViolationKind::kDeterminism:
      return "determinism";
  }
  return "?";
}

bool Model::Independent(const Choice& a, const Choice& b) const {
  return a.action == ChoiceAction::kFire && b.action == ChoiceAction::kFire &&
         a.scope != 0 && b.scope != 0 && a.scope != b.scope;
}

// ---------------------------------------------------------------------------
// Replay

ReplayOutcome Replay(Model& model, const std::vector<TraceStep>& trace) {
  ReplayOutcome out;
  model.Reset();
  out.digests.push_back(model.Digest());
  std::string why;
  if (!model.CheckInvariants(&why)) {
    out.invariants_ok = false;
    out.message = why;
    return out;
  }
  for (const TraceStep& step : trace) {
    const std::vector<Choice> enabled = model.Enabled();
    if (step.index >= enabled.size()) {
      out.valid = false;
      out.message = "choice index " + std::to_string(step.index) +
                    " out of range at step " +
                    std::to_string(out.steps_executed) + " (" +
                    std::to_string(enabled.size()) + " enabled)";
      break;
    }
    const Choice& choice = enabled[step.index];
    model.Execute(choice);
    ++out.steps_executed;
    out.executed.push_back({choice.index, choice.action, choice.label});
    out.digests.push_back(model.Digest());
    why.clear();
    if (!model.CheckInvariants(&why)) {
      out.invariants_ok = false;
      out.message = why;
      break;
    }
  }
  out.goal_reached = model.GoalReached();
  out.deadlocked = out.valid && out.invariants_ok && !out.goal_reached &&
                   model.Enabled().empty();
  return out;
}

// ---------------------------------------------------------------------------
// Exploration

namespace {

/// A choice remembered across sibling branches. Sleep sets match on
/// (label, action): labels identify the *transition*, which is stable
/// across re-executions of the same prefix.
struct SleepEntry {
  std::string label;
  ChoiceAction action = ChoiceAction::kFire;
  std::uint32_t scope = 0;
};

Choice AsChoice(const SleepEntry& entry) {
  Choice c;
  c.action = entry.action;
  c.label = entry.label;
  c.scope = entry.scope;
  return c;
}

bool InSleep(const std::vector<SleepEntry>& sleep, const Choice& choice) {
  for (const SleepEntry& entry : sleep) {
    if (entry.action == choice.action && entry.label == choice.label) {
      return true;
    }
  }
  return false;
}

/// Greedy counterexample minimisation: repeatedly try deleting a step or
/// flattening a step back to the default schedule (index 0), keeping any
/// candidate that still reproduces the same violation kind.
std::vector<TraceStep> ShrinkTrace(Model& model, std::vector<TraceStep> trace,
                                   ViolationKind kind, int budget,
                                   ExploreStats& stats) {
  auto reproduces = [&](const std::vector<TraceStep>& candidate) {
    const ReplayOutcome outcome = Replay(model, candidate);
    stats.transitions += outcome.steps_executed;
    --budget;
    if (kind == ViolationKind::kInvariant) return !outcome.invariants_ok;
    return outcome.deadlocked;  // liveness
  };
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (std::size_t i = trace.size(); i-- > 0 && budget > 0;) {
      std::vector<TraceStep> candidate = trace;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(candidate)) {
        trace = std::move(candidate);
        improved = true;
      }
    }
    for (std::size_t i = 0; i < trace.size() && budget > 0; ++i) {
      if (trace[i].index == 0) continue;
      std::vector<TraceStep> candidate = trace;
      candidate[i].index = 0;
      if (reproduces(candidate)) {
        trace = std::move(candidate);
        improved = true;
      }
    }
  }
  return trace;
}

/// Shrink, then replay once more to canonicalise the trace (labels and
/// actions re-read from the actual enabled sets) and record the digest
/// sequence the replayer must reproduce.
void FinishViolation(Model& model, const ExploreOptions& options,
                     ExploreStats& stats, Violation violation,
                     ExploreResult& result) {
  if (violation.kind != ViolationKind::kDeterminism &&
      options.shrink_budget > 0) {
    violation.trace = ShrinkTrace(model, std::move(violation.trace),
                                  violation.kind, options.shrink_budget, stats);
  }
  if (violation.kind != ViolationKind::kDeterminism) {
    ReplayOutcome outcome = Replay(model, violation.trace);
    stats.transitions += outcome.steps_executed;
    violation.trace = std::move(outcome.executed);
    violation.digests = std::move(outcome.digests);
    if (!outcome.message.empty()) violation.message = outcome.message;
  }
  result.violations.push_back(std::move(violation));
}

/// Execute one trace greedily (always the first enabled choice), then
/// replay the identical choice sequence and demand an identical digest
/// sequence. Divergence means the model leaks state across Reset() or
/// depends on iteration order / uninitialized memory — which would also
/// silently corrupt the DFS bookkeeping, so it is checked first.
std::optional<Violation> DeterminismProbe(Model& model,
                                          const ExploreOptions& options,
                                          ExploreStats& stats) {
  model.Reset();
  std::vector<TraceStep> steps;
  std::vector<std::uint64_t> first;
  first.push_back(model.Digest());
  while (static_cast<int>(steps.size()) < options.max_steps &&
         !model.GoalReached()) {
    const std::vector<Choice> enabled = model.Enabled();
    if (enabled.empty()) break;
    const Choice& choice = enabled.front();
    model.Execute(choice);
    ++stats.transitions;
    steps.push_back({choice.index, choice.action, choice.label});
    first.push_back(model.Digest());
  }
  const ReplayOutcome outcome = Replay(model, steps);
  stats.transitions += outcome.steps_executed;

  const std::size_t n = std::min(first.size(), outcome.digests.size());
  std::size_t diverge = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (first[i] != outcome.digests[i]) {
      diverge = i;
      break;
    }
  }
  if (diverge == n && first.size() == outcome.digests.size()) {
    return std::nullopt;
  }
  Violation violation;
  violation.kind = ViolationKind::kDeterminism;
  violation.message =
      "replaying an identical choice trace produced a different digest "
      "sequence (first divergence at step " +
      std::to_string(diverge) + " of " + std::to_string(first.size()) + ")";
  violation.trace = std::move(steps);
  violation.digests = std::move(first);
  return violation;
}

}  // namespace

ExploreResult Explore(Model& model, const ExploreOptions& options) {
  ExploreResult result;
  ExploreStats& stats = result.stats;

  if (options.check_determinism) {
    if (auto violation = DeterminismProbe(model, options, stats)) {
      result.violations.push_back(std::move(*violation));
      return result;
    }
  }

  // One DFS frame per executed step: the full enabled set at that state,
  // which sibling is currently taken, and the state's sleep set.
  struct Frame {
    std::vector<Choice> choices;
    std::size_t next = 0;
    std::vector<SleepEntry> sleep;
  };
  std::vector<Frame> stack;
  // digest -> shallowest depth it was reached at. Revisiting at the same
  // or greater depth cannot reach anything new within the step bound.
  std::unordered_map<std::uint64_t, int> seen_depth;
  // Sleep set of the state the DFS just arrived at (empty at the root).
  std::vector<SleepEntry> arrival_sleep;

  auto next_explorable = [&](const Frame& frame, std::size_t from) {
    std::size_t k = from;
    while (k < frame.choices.size() && options.por &&
           InSleep(frame.sleep, frame.choices[k])) {
      ++stats.pruned_sleep;
      ++k;
    }
    return k;
  };

  // Sleep set for the state reached by taking frame.choices[frame.next]:
  // everything slept-or-explored before it that is independent of it.
  auto child_sleep = [&](const Frame& frame) {
    std::vector<SleepEntry> child;
    if (!options.por) return child;
    const Choice& chosen = frame.choices[frame.next];
    for (const SleepEntry& entry : frame.sleep) {
      if (model.Independent(AsChoice(entry), chosen)) child.push_back(entry);
    }
    for (std::size_t k = 0; k < frame.next; ++k) {
      const Choice& prev = frame.choices[k];
      if (InSleep(frame.sleep, prev)) continue;  // skipped, not explored
      if (model.Independent(prev, chosen)) {
        child.push_back({prev.label, prev.action, prev.scope});
      }
    }
    return child;
  };

  auto current_trace = [&]() {
    std::vector<TraceStep> trace;
    trace.reserve(stack.size());
    for (const Frame& frame : stack) {
      const Choice& c = frame.choices[frame.next];
      trace.push_back({c.index, c.action, c.label});
    }
    return trace;
  };

  model.Reset();
  bool running = true;
  while (running) {
    const int depth = static_cast<int>(stack.size());

    std::string why;
    if (!model.CheckInvariants(&why)) {
      Violation violation;
      violation.kind = ViolationKind::kInvariant;
      violation.message = why;
      violation.trace = current_trace();
      FinishViolation(model, options, stats, std::move(violation), result);
      return result;
    }

    bool terminal = false;
    const std::uint64_t digest = model.Digest();
    const auto [it, inserted] = seen_depth.try_emplace(digest, depth);
    if (inserted) {
      ++stats.distinct_states;
    } else if (it->second <= depth) {
      if (options.prune_digests) {
        ++stats.pruned_digest;
        terminal = true;
      }
    } else {
      it->second = depth;
    }

    if (model.GoalReached()) {
      ++stats.maximal_traces;
      terminal = true;
    } else if (!terminal && depth >= options.max_steps) {
      ++stats.truncated_traces;
      terminal = true;
    }

    if (!terminal) {
      std::vector<Choice> enabled = model.Enabled();
      if (enabled.empty()) {
        Violation violation;
        violation.kind = ViolationKind::kLiveness;
        violation.message = "event queue drained at depth " +
                            std::to_string(depth) +
                            " without reaching the goal";
        violation.trace = current_trace();
        FinishViolation(model, options, stats, std::move(violation), result);
        return result;
      }
      Frame frame;
      frame.choices = std::move(enabled);
      frame.sleep = std::move(arrival_sleep);
      frame.next = next_explorable(frame, 0);
      if (frame.next < frame.choices.size()) {
        arrival_sleep = child_sleep(frame);
        model.Execute(frame.choices[frame.next]);
        ++stats.transitions;
        stack.push_back(std::move(frame));
        continue;
      }
      // Every enabled choice is asleep: all continuations are covered by
      // sibling branches. Not a maximal trace — just done here.
      terminal = true;
    }

    if (stats.maximal_traces + stats.truncated_traces >= options.max_traces) {
      stats.exhausted = false;
      break;
    }

    // Backtrack: advance the deepest frame with an unexplored sibling and
    // re-execute the prefix from a fresh initial state (the search is
    // stateless — nothing is checkpointed).
    bool advanced = false;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::size_t sibling = next_explorable(frame, frame.next + 1);
      if (sibling < frame.choices.size()) {
        frame.next = sibling;
        model.Reset();
        for (std::size_t i = 0; i + 1 < stack.size(); ++i) {
          model.Execute(stack[i].choices[stack[i].next]);
          ++stats.transitions;
        }
        arrival_sleep = child_sleep(frame);
        model.Execute(frame.choices[frame.next]);
        ++stats.transitions;
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    running = advanced;
  }
  return result;
}

// ---------------------------------------------------------------------------
// QUIC scenarios

namespace {

constexpr StreamId kDataStream{3};

// FNV-1a for the model-level digest (connection digests + queue shape).
class Fnv {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class ScenarioKind { kHandshake, kTransfer, kHandover };

/// Everything a scenario run owns. Reset() destroys and rebuilds the
/// whole world — the only way to restart a C++ object graph of this
/// size deterministically.
struct QuicWorld {
  sim::Simulator sim;
  sim::Network net;
  sim::TwoPathTopology topo;
  // Declared before the endpoints: tracers must outlive the connections
  // holding pointers to them (same discipline as harness/runner.cc).
  std::ofstream qlog_out;
  std::unique_ptr<obs::QlogTracer> qlog;
  obs::TracerMux mux;
  std::unique_ptr<quic::ServerEndpoint> server;
  std::unique_ptr<quic::ClientEndpoint> client;
  ByteCount received{};
  std::uint64_t errors = 0;
  bool finished = false;

  QuicWorld(const ScenarioOptions& options, ScenarioKind kind)
      : net(sim, Rng(options.seed ^ 0x517E0FF)) {
    obs::TracerMux* tracer = nullptr;
    if (!options.qlog_path.empty()) {
      qlog_out.open(options.qlog_path, std::ios::trunc);
      if (qlog_out.is_open()) {
        qlog = std::make_unique<obs::QlogTracer>(
            qlog_out, "mpq-model-" + options.name);
        mux.Add(qlog.get());
        tracer = &mux;
      }
    }
    // The Fig. 2 topology with mildly asymmetric RTTs — asymmetric
    // enough that path choice matters, small enough that the schedule
    // space stays explorable.
    std::array<sim::PathParams, 2> paths;
    paths[0].capacity_mbps = 10.0;
    paths[0].rtt = 20 * kMillisecond;
    paths[0].random_loss_rate = 0.0;
    paths[1] = paths[0];
    paths[1].rtt = 30 * kMillisecond;
    topo = sim::BuildTwoPathTopology(net, paths);

    quic::ConnectionConfig config;
    config.multipath = true;
    config.congestion = cc::Algorithm::kOlia;

    std::vector<sim::Address> server_locals(topo.server_addr.begin(),
                                            topo.server_addr.end());
    server = std::make_unique<quic::ServerEndpoint>(sim, net, server_locals,
                                                    config,
                                                    options.seed * 2 + 1);
    server->SetAcceptHandler([tracer](quic::Connection& conn) {
      if (tracer != nullptr) conn.SetTracer(tracer);
      auto request = std::make_shared<std::string>();
      conn.SetStreamDataHandler(
          [&conn, request](StreamId id, ByteCount,
                           std::span<const std::uint8_t> data, bool fin) {
            request->append(data.begin(), data.end());
            if (fin && id == kDataStream) {
              const ByteCount size{std::stoull(request->substr(4))};
              conn.SendOnStream(kDataStream, std::make_unique<PatternSource>(
                                                 kDataStream, size));
            }
          });
    });

    std::vector<sim::Address> client_locals(topo.client_addr.begin(),
                                            topo.client_addr.end());
    client = std::make_unique<quic::ClientEndpoint>(sim, net, client_locals,
                                                    config,
                                                    options.seed * 2 + 2);
    if (tracer != nullptr) client->connection().SetTracer(tracer);
    client->connection().SetStreamDataHandler(
        [this](StreamId, ByteCount offset, std::span<const std::uint8_t> data,
               bool fin) {
          errors += CountPatternMismatches(kDataStream.value(), offset, data);
          received += data.size();
          if (fin) finished = true;
        });
    if (kind != ScenarioKind::kHandshake) {
      const ByteCount size = options.transfer_bytes;
      const TimePoint fault_after = options.fault_time;
      client->connection().SetEstablishedHandler(
          [this, kind, size, fault_after] {
            const std::string request = "GET " + std::to_string(size.value());
            client->connection().SendOnStream(
                kDataStream,
                std::make_unique<BufferSource>(std::vector<std::uint8_t>(
                    request.begin(), request.end())));
            if (kind == ScenarioKind::kHandover) {
              // Path 0 dies fault_time after establishment — relative,
              // not absolute: the handshake is single-path, so a fault
              // landing mid-handshake (which adversarial drops can
              // arrange against any fixed time) would make the liveness
              // goal unsatisfiable by construction. The explorer found
              // exactly that deadlock when this used an absolute time.
              sim::PathFault fault;
              fault.time = sim.now() + fault_after;
              fault.path = 0;
              fault.kind = sim::LinkFault::Kind::kDown;
              sim::SchedulePathFaults(sim, topo, {fault});
            }
          });
    }
    client->Connect(topo.server_addr[0]);
  }
};

class QuicScenarioModel final : public Model {
 public:
  explicit QuicScenarioModel(ScenarioOptions options)
      : options_(std::move(options)) {
    if (options_.name == "handshake") {
      kind_ = ScenarioKind::kHandshake;
    } else if (options_.name == "transfer") {
      kind_ = ScenarioKind::kTransfer;
    } else if (options_.name == "handover") {
      kind_ = ScenarioKind::kHandover;
    } else {
      throw std::invalid_argument("unknown scenario: " + options_.name);
    }
    Reset();
  }

  void Reset() override {
    world_ = std::make_unique<QuicWorld>(options_, kind_);
    drops_used_ = 0;
    dups_used_ = 0;
  }

  std::vector<Choice> Enabled() override {
    const auto pending = world_->sim.PendingEvents();
    std::vector<Choice> out;
    if (pending.empty()) return out;
    const TimePoint t0 = pending.front().when;
    int considered = 0;
    for (const auto& info : pending) {
      if (info.when > t0 + options_.commute_window) break;
      if (considered >= options_.branch) break;
      ++considered;
      const bool delivery = info.kind == sim::EventKind::kDelivery;
      std::string label = "e" + std::to_string(info.id);
      label += delivery ? 'd' : (info.kind == sim::EventKind::kTimer ? 't' : 'g');
      Choice fire;
      fire.action = ChoiceAction::kFire;
      fire.label = label;
      fire.scope = delivery ? info.scope : 0;
      fire.ref = info.id;
      out.push_back(std::move(fire));
      if (delivery && drops_used_ < options_.max_drops) {
        Choice drop;
        drop.action = ChoiceAction::kDrop;
        drop.label = label;
        drop.ref = info.id;
        out.push_back(std::move(drop));
      }
      if (delivery && dups_used_ < options_.max_dups) {
        Choice dup;
        dup.action = ChoiceAction::kDup;
        dup.label = label;
        dup.ref = info.id;
        out.push_back(std::move(dup));
      }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].index = static_cast<std::uint32_t>(i);
    }
    return out;
  }

  void Execute(const Choice& choice) override {
    switch (choice.action) {
      case ChoiceAction::kFire:
        world_->sim.FireEvent(choice.ref);
        break;
      case ChoiceAction::kDrop:
        world_->sim.Cancel(choice.ref);
        ++drops_used_;
        break;
      case ChoiceAction::kDup:
        // Wire duplication: a copy stays pending, the original delivers.
        world_->sim.DuplicateEvent(choice.ref, 0);
        world_->sim.FireEvent(choice.ref);
        ++dups_used_;
        break;
    }
  }

  std::uint64_t Digest() override {
    Fnv h;
    h.U64(world_->client->connection().StateDigest());
    const auto conns = world_->server->Connections();
    h.U64(conns.size());
    for (const quic::Connection* conn : conns) h.U64(conn->StateDigest());
    h.U64(static_cast<std::uint64_t>(drops_used_));
    h.U64(static_cast<std::uint64_t>(dups_used_));
    h.U64(world_->received.value());
    h.U64(world_->errors);
    h.U64(world_->finished ? 1 : 0);
    // The pending queue's shape: kinds, scopes and *relative* delays.
    // Absolute times stay out (see quic/digest.cc) so that equivalent
    // protocol states reached at different clock values still merge.
    const auto pending = world_->sim.PendingEvents();
    h.U64(pending.size());
    const TimePoint t0 = pending.empty() ? 0 : pending.front().when;
    for (const auto& info : pending) {
      h.U64(static_cast<std::uint64_t>(info.kind));
      h.U64(info.scope);
      h.U64(static_cast<std::uint64_t>(info.when - t0));
    }
    return h.hash();
  }

  bool CheckInvariants(std::string* why) override {
    bool ok = quic::Auditor::CheckAll(world_->client->connection(), why);
    for (const quic::Connection* conn : world_->server->Connections()) {
      ok = quic::Auditor::CheckAll(*conn, why) && ok;
    }
    if (world_->errors > 0) {
      ok = false;
      if (why != nullptr) {
        *why += "payload corruption: " + std::to_string(world_->errors) +
                " byte(s) differ from the pattern\n";
      }
    }
    if (kind_ != ScenarioKind::kHandshake) {
      const ByteCount expected = options_.transfer_bytes;
      if (world_->received > expected) {
        ok = false;
        if (why != nullptr) {
          *why += "receiver got " + std::to_string(world_->received.value()) +
                  " bytes, more than the " +
                  std::to_string(expected.value()) + " sent\n";
        }
      }
      if (world_->finished && world_->received != expected) {
        ok = false;
        if (why != nullptr) {
          *why += "transfer finished at " +
                  std::to_string(world_->received.value()) + " of " +
                  std::to_string(expected.value()) + " bytes\n";
        }
      }
    }
    return ok;
  }

  bool GoalReached() override {
    if (kind_ == ScenarioKind::kHandshake) {
      if (!world_->client->connection().established()) return false;
      const auto conns = world_->server->Connections();
      if (conns.empty()) return false;
      for (const quic::Connection* conn : conns) {
        if (!conn->established()) return false;
      }
      return true;
    }
    return world_->finished && world_->errors == 0 &&
           world_->received == options_.transfer_bytes;
  }

 private:
  ScenarioOptions options_;
  ScenarioKind kind_ = ScenarioKind::kHandshake;
  std::unique_ptr<QuicWorld> world_;
  int drops_used_ = 0;
  int dups_used_ = 0;
};

}  // namespace

std::unique_ptr<Model> MakeQuicScenarioModel(const ScenarioOptions& options) {
  return std::make_unique<QuicScenarioModel>(options);
}

// ---------------------------------------------------------------------------
// Self-test corpus

namespace {

// --- clean-pair: two independent counters, no bug. Also the PoR
// benchmark: with sleep sets the interleavings collapse.
class CleanPairModel final : public Model {
 public:
  void Reset() override { a_ = b_ = 0; }
  std::vector<Choice> Enabled() override {
    std::vector<Choice> out;
    if (a_ < 3) out.push_back(Step("a", a_, 1, 0));
    if (b_ < 3) out.push_back(Step("b", b_, 2, 1));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].index = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  void Execute(const Choice& choice) override {
    if (choice.ref == 0) ++a_; else ++b_;
  }
  std::uint64_t Digest() override {
    return 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(a_) * 16 +
                                    static_cast<std::uint64_t>(b_) + 1);
  }
  bool CheckInvariants(std::string* why) override {
    if (a_ <= 3 && b_ <= 3) return true;
    if (why != nullptr) *why += "counter overshot\n";
    return false;
  }
  bool GoalReached() override { return a_ == 3 && b_ == 3; }

 private:
  static Choice Step(const char* name, int step, std::uint32_t scope,
                     std::uint64_t ref) {
    Choice c;
    c.label = std::string(name) + std::to_string(step);
    c.scope = scope;
    c.ref = ref;
    return c;
  }
  int a_ = 0;
  int b_ = 0;
};

// --- order-bug: "withdraw" before "pay" drives the balance negative.
// The schedule-order bug class the explorer exists to find.
class OrderBugModel final : public Model {
 public:
  void Reset() override {
    balance_ = 0;
    paid_ = withdrawn_ = false;
  }
  std::vector<Choice> Enabled() override {
    std::vector<Choice> out;
    if (!paid_) out.push_back(Step("pay", 1));
    if (!withdrawn_) out.push_back(Step("withdraw", 2));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].index = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  void Execute(const Choice& choice) override {
    if (choice.ref == 1) {
      ++balance_;
      paid_ = true;
    } else {
      --balance_;
      withdrawn_ = true;
    }
  }
  std::uint64_t Digest() override {
    return (static_cast<std::uint64_t>(balance_ + 8) << 2) |
           (paid_ ? 2U : 0U) | (withdrawn_ ? 1U : 0U);
  }
  bool CheckInvariants(std::string* why) override {
    if (balance_ >= 0) return true;
    if (why != nullptr) *why += "balance went negative\n";
    return false;
  }
  bool GoalReached() override { return paid_ && withdrawn_; }

 private:
  static Choice Step(const char* label, std::uint64_t ref) {
    Choice c;
    c.label = label;
    c.ref = ref;
    return c;
  }
  int balance_ = 0;
  bool paid_ = false;
  bool withdrawn_ = false;
};

// --- lost-message: a protocol with no retransmission. Dropping its one
// delivery deadlocks short of the goal — a liveness violation that only
// the adversarial drop branch can expose.
class LostMessageModel final : public Model {
 public:
  void Reset() override {
    in_flight_ = true;
    delivered_ = false;
    drops_used_ = 0;
  }
  std::vector<Choice> Enabled() override {
    std::vector<Choice> out;
    if (in_flight_) {
      Choice fire;
      fire.label = "msg";
      fire.ref = 1;
      out.push_back(std::move(fire));
      if (drops_used_ < 1) {
        Choice drop;
        drop.action = ChoiceAction::kDrop;
        drop.label = "msg";
        drop.ref = 1;
        out.push_back(std::move(drop));
      }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].index = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  void Execute(const Choice& choice) override {
    in_flight_ = false;
    if (choice.action == ChoiceAction::kFire) {
      delivered_ = true;
    } else {
      ++drops_used_;
    }
  }
  std::uint64_t Digest() override {
    return (in_flight_ ? 4U : 0U) | (delivered_ ? 2U : 0U) |
           static_cast<std::uint64_t>(drops_used_ << 3);
  }
  bool CheckInvariants(std::string*) override { return true; }
  bool GoalReached() override { return delivered_; }

 private:
  bool in_flight_ = true;
  bool delivered_ = false;
  int drops_used_ = 0;
};

// --- dup-unsafe: a non-idempotent receiver. Duplicating the delivery
// applies it twice; only the adversarial duplicate branch catches it.
class DupUnsafeModel final : public Model {
 public:
  void Reset() override {
    pending_ = 1;
    applied_ = 0;
    dups_used_ = 0;
  }
  std::vector<Choice> Enabled() override {
    std::vector<Choice> out;
    if (pending_ > 0) {
      Choice fire;
      fire.label = "msg";
      fire.ref = 1;
      out.push_back(std::move(fire));
      if (dups_used_ < 1) {
        Choice dup;
        dup.action = ChoiceAction::kDup;
        dup.label = "msg";
        dup.ref = 1;
        out.push_back(std::move(dup));
      }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].index = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  void Execute(const Choice& choice) override {
    if (choice.action == ChoiceAction::kDup) {
      ++pending_;  // the wire copy
      ++dups_used_;
    }
    --pending_;  // deliver (the original, for kDup)
    ++applied_;  // ...and the receiver blindly re-applies it
  }
  std::uint64_t Digest() override {
    return static_cast<std::uint64_t>(pending_) |
           (static_cast<std::uint64_t>(applied_) << 8) |
           (static_cast<std::uint64_t>(dups_used_) << 16);
  }
  bool CheckInvariants(std::string* why) override {
    if (applied_ <= 1) return true;
    if (why != nullptr) *why += "message applied twice\n";
    return false;
  }
  bool GoalReached() override { return pending_ == 0; }

 private:
  int pending_ = 1;
  int applied_ = 0;
  int dups_used_ = 0;
};

// --- hidden-nondet: state leaks across Reset() (a "static" survives),
// so a replayed trace digests differently. The determinism probe must
// catch it before the DFS trusts any re-execution.
class HiddenNondetModel final : public Model {
 public:
  void Reset() override { steps_ = 0; }
  std::vector<Choice> Enabled() override {
    std::vector<Choice> out;
    if (steps_ < 3) {
      Choice c;
      c.label = "tick" + std::to_string(steps_);
      out.push_back(std::move(c));
      out[0].index = 0;
    }
    return out;
  }
  void Execute(const Choice&) override {
    ++steps_;
    ++Leak();
  }
  std::uint64_t Digest() override {
    return static_cast<std::uint64_t>(steps_) * 1024 + Leak();
  }
  bool CheckInvariants(std::string*) override { return true; }
  bool GoalReached() override { return steps_ == 3; }

 private:
  static std::uint64_t& Leak() {
    static std::uint64_t counter = 0;
    return counter;
  }
  int steps_ = 0;
};

// --- deep-race: x+=1 ; x*=2 racing x+=3 — only two of the three
// interleavings reach x==8. Needs depth-3 systematic search *and* is
// irreducible, so it exercises the shrinker's "no candidate survives"
// path too.
class DeepRaceModel final : public Model {
 public:
  void Reset() override {
    x_ = 0;
    a_step_ = 0;
    b_done_ = false;
  }
  std::vector<Choice> Enabled() override {
    std::vector<Choice> out;
    if (a_step_ == 0) out.push_back(Step("a-add", 1));
    if (a_step_ == 1) out.push_back(Step("a-mul", 2));
    if (!b_done_) out.push_back(Step("b-add", 3));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].index = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  void Execute(const Choice& choice) override {
    if (choice.ref == 1) {
      x_ += 1;
      a_step_ = 1;
    } else if (choice.ref == 2) {
      x_ *= 2;
      a_step_ = 2;
    } else {
      x_ += 3;
      b_done_ = true;
    }
  }
  std::uint64_t Digest() override {
    return static_cast<std::uint64_t>(x_) * 64 +
           static_cast<std::uint64_t>(a_step_) * 2 + (b_done_ ? 1 : 0);
  }
  bool CheckInvariants(std::string* why) override {
    if (x_ != 8) return true;
    if (why != nullptr) *why += "x reached the forbidden value 8\n";
    return false;
  }
  bool GoalReached() override { return a_step_ == 2 && b_done_; }

 private:
  static Choice Step(const char* label, std::uint64_t ref) {
    Choice c;
    c.label = label;
    c.ref = ref;
    return c;
  }
  int x_ = 0;
  int a_step_ = 0;
  bool b_done_ = false;
};

}  // namespace

std::vector<SelfTestCase> SelfTestCorpus() {
  ExploreOptions small;
  small.max_steps = 16;

  std::vector<SelfTestCase> corpus;
  corpus.push_back({"clean-pair",
                    [] { return std::make_unique<CleanPairModel>(); },
                    small, false, ViolationKind::kInvariant});
  corpus.push_back({"order-bug",
                    [] { return std::make_unique<OrderBugModel>(); },
                    small, true, ViolationKind::kInvariant});
  corpus.push_back({"lost-message",
                    [] { return std::make_unique<LostMessageModel>(); },
                    small, true, ViolationKind::kLiveness});
  corpus.push_back({"dup-unsafe",
                    [] { return std::make_unique<DupUnsafeModel>(); },
                    small, true, ViolationKind::kInvariant});
  corpus.push_back({"hidden-nondet",
                    [] { return std::make_unique<HiddenNondetModel>(); },
                    small, true, ViolationKind::kDeterminism});
  corpus.push_back({"deep-race",
                    [] { return std::make_unique<DeepRaceModel>(); },
                    small, true, ViolationKind::kInvariant});
  return corpus;
}

int RunSelfTest(std::string& report) {
  int failures = 0;
  auto record = [&](bool ok, const std::string& name,
                    const std::string& detail) {
    report += std::string(ok ? "PASS" : "FAIL") + "  " + name;
    if (!detail.empty()) report += "  (" + detail + ")";
    report += "\n";
    if (!ok) ++failures;
  };

  for (const SelfTestCase& test : SelfTestCorpus()) {
    const auto model = test.make();
    const ExploreResult result = Explore(*model, test.options);
    std::string detail;
    bool ok;
    if (test.expect_violation) {
      ok = !result.violations.empty() &&
           result.violations.front().kind == test.expected_kind;
      detail = result.violations.empty()
                   ? "expected a " + std::string(ToString(test.expected_kind)) +
                         " violation, found none"
                   : std::string("found ") +
                         ToString(result.violations.front().kind) +
                         " in " +
                         std::to_string(result.violations.front().trace.size()) +
                         " steps";
      if (!result.violations.empty() && !ok) {
        detail += ", expected " + std::string(ToString(test.expected_kind));
      }
    } else {
      ok = result.violations.empty() && result.stats.exhausted;
      detail = std::to_string(result.stats.maximal_traces) + " traces, " +
               std::to_string(result.stats.distinct_states) + " states";
      if (!result.violations.empty()) {
        detail += ", unexpected " +
                  std::string(ToString(result.violations.front().kind));
      }
    }
    record(ok, "corpus/" + test.name, detail);
  }

  // Partial-order reduction cross-check: on the independent-counters
  // model, sleep sets must prune traces without changing the verdict.
  {
    ExploreOptions base;
    base.max_steps = 16;
    base.prune_digests = false;  // isolate the sleep-set effect
    ExploreOptions with_por = base;
    with_por.por = true;
    ExploreOptions without_por = base;
    without_por.por = false;

    CleanPairModel model;
    const ExploreResult reduced = Explore(model, with_por);
    const ExploreResult full = Explore(model, without_por);
    const bool ok = reduced.violations.empty() && full.violations.empty() &&
                    reduced.stats.maximal_traces < full.stats.maximal_traces;
    record(ok, "por-cross-check",
           "por " + std::to_string(reduced.stats.maximal_traces) +
               " traces vs full " + std::to_string(full.stats.maximal_traces));
  }

  // Counterexample round-trip: a found violation must replay to the
  // identical digest sequence and the same verdict.
  {
    DeepRaceModel model;
    ExploreOptions options;
    options.max_steps = 16;
    const ExploreResult result = Explore(model, options);
    bool ok = !result.violations.empty();
    std::string detail = "no violation found";
    if (ok) {
      const Violation& violation = result.violations.front();
      const ReplayOutcome replayed = Replay(model, violation.trace);
      ok = !replayed.invariants_ok && replayed.digests == violation.digests;
      detail = ok ? std::to_string(violation.trace.size()) +
                        " steps replay digest-identical"
                  : "replay diverged from the recorded counterexample";
    }
    record(ok, "replay-round-trip", detail);
  }

  return failures;
}

}  // namespace mpq::harness
