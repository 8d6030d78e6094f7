// fleet_mp: a fleet of 10k multipath connections over 8 shards on one
// thread, run as forty harness::RunWorkload calls of 250 connections each.
// The same quic code as bulk_mp used the opposite way: many ~13 KB flows,
// each paying a handshake, connection set-up and reaping, so the timer
// wheel, event queue, server demux and per-connection allocation dominate
// rather than per-packet crypto.
#include <string>
#include <vector>

#include "alloc_count.h"
#include "harness/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mpq;

constexpr double kMiB = 1024.0 * 1024.0;
// The fleet is kPlans flow plans (seeds derived from the run's seed) of
// kConnections each, and a timed unit is one RunWorkload of one plan. A
// whole 10k-connection run takes about a second, and on a shared machine
// a run that long seldom falls entirely into a quiet moment; units of
// about 0.03 s do, so a fleet timed at the quietest unit is much steadier.
// (The host time per flow is the same for plans of 250, 625 and 1250.)
constexpr std::size_t kPlans = 40;
constexpr std::uint32_t kConnections = 250;

harness::WorkloadOptions FleetOptions(std::uint64_t seed) {
  harness::WorkloadOptions options;
  options.connections = kConnections;
  options.multipath = true;
  options.shards = 8;
  options.jobs = 1;
  options.seed = seed;
  return options;
}

/// Flows of `result` that did not complete, or whose simulated outcome
/// differs from `first` (the same seed's first run) or from the plan.
std::uint64_t FailedFlows(const harness::WorkloadResult& result,
                          const harness::WorkloadResult& first,
                          const std::vector<harness::FlowSpec>& plan) {
  if (result.flows.size() != plan.size() ||
      first.flows.size() != plan.size()) {
    return plan.size();
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const harness::FlowResult& r = result.flows[i];
    const harness::FlowResult& f = first.flows[i];
    if (!r.completed || r.cid != plan[i].cid || r.size != plan[i].size ||
        r.arrival != plan[i].arrival || r.fct != f.fct) {
      ++failed;
    }
  }
  // Whole-run outputs: a mismatch here fails every flow's run.
  if (result.total_events != first.total_events ||
      result.bytes_received != first.bytes_received ||
      result.metrics_json != first.metrics_json) {
    failed = plan.size();
  }
  return failed;
}

/// Payload bytes the clients actually received: the fleet registry's
/// "workload.bytes_received" counter. (WorkloadResult::bytes_received sums
/// the planned sizes of the completed flows.)
std::uint64_t DeliveredBytes(const harness::WorkloadResult& result) {
  return SumJsonCounters(result.metrics_json, "\"workload.bytes_received\":");
}

/// One of the run's flow plans: its options, the set-up's copy of the
/// plan, the warm-up run (the reference every later run of the plan must
/// repeat) and the timed runs.
struct Fleet {
  harness::WorkloadOptions options;
  std::vector<harness::FlowSpec> plan;
  harness::WorkloadResult first;
  std::vector<UnitTime> units;
};

}  // namespace

void RunFleet(const Args& args, Report& report) {
  std::vector<Fleet> fleets(kPlans);
  for (std::size_t i = 0; i < kPlans; ++i) {
    fleets[i].options = FleetOptions(DeriveSeed(args.seed, 10, i));
  }

  // Set-up: the flow plans (arrivals, sizes, client seeds, shard of each
  // CID). RunWorkload draws the same plan again internally; the copies
  // here are what the results are checked against.
  SetupTimer setup([&] {
    for (Fleet& fleet : fleets) fleet.plan = harness::GenerateFlows(fleet.options);
  });

  // Warm-up: one run per plan; its outputs are the reference.
  for (Fleet& fleet : fleets) {
    fleet.first = harness::RunWorkload(fleet.options);
    ByteCount planned_bytes{};
    for (const harness::FlowSpec& f : fleet.plan) planned_bytes += f.size;
    std::uint64_t failed = FailedFlows(fleet.first, fleet.first, fleet.plan);
    if (DeliveredBytes(fleet.first) != planned_bytes.value()) failed = fleet.plan.size();
    report.Attempt(fleet.plan.size(), failed);
  }

  std::size_t units_run = 0;
  auto run_unit = [&]() {
    Fleet& fleet = fleets[units_run++ % kPlans];
    const Stopwatch stopwatch;
    const harness::WorkloadResult result = harness::RunWorkload(fleet.options);
    const UnitTime timed = stopwatch.Elapsed();
    report.Attempt(fleet.plan.size(), FailedFlows(result, fleet.first, fleet.plan));
    fleet.units.push_back(timed);
    return timed;
  };
  const double budget = args.trace ? args.seconds * 0.4 : args.seconds;
  const std::vector<UnitTime> units =
      RepeatUnits(budget, 2 * kPlans, run_unit, &setup);
  const double setup_s = setup.Fastest();
  report.NoteUnits("untraced", units);

  // Host time of the whole fleet: one run of every plan, at the run's
  // quietest moment.
  std::vector<std::vector<UnitTime>> plan_units;
  std::vector<double> fcts_ms;
  double flows = 0, payload_bytes = 0;
  for (const Fleet& fleet : fleets) {
    plan_units.push_back(fleet.units);
    for (const harness::FlowResult& flow : fleet.first.flows) {
      if (flow.completed) fcts_ms.push_back(static_cast<double>(flow.fct) / kMillisecond);
    }
    flows += static_cast<double>(fleet.first.completed);
    payload_bytes += static_cast<double>(DeliveredBytes(fleet.first));
  }
  const UnitTime pass = QuietPassTime(plan_units);
  const Tail tail = TailPercentile(fcts_ms);

  report.Note("fleet = " + std::to_string(kPlans) + " plans x " +
              std::to_string(kConnections) + " flows; unit = one RunWorkload of one plan; " +
              "units timed: " + std::to_string(units.size()) +
              "; sim_fct_tail_ms is the " + tail.label + " of " +
              std::to_string(fcts_ms.size()) + " flows");
  report.Add("setup_s", setup_s, "s");
  report.Add("wall_s", pass.wall_s, "s");
  report.Add("cpu_s", pass.cpu_s, "s");
  report.Add("payload_mb_per_s", payload_bytes / kMiB / pass.wall_s, "MB/s");
  report.Add("flows_per_s", flows / pass.wall_s, "1/s");
  report.Add("sim_fct_p50_ms", Median(fcts_ms), "sim_ms");
  report.Add("sim_fct_tail_ms", tail.value, "sim_ms");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  // ---- traced run: runs of the first plan with allocation counting on,
  // each one a top-level span.
  const Fleet& fleet = fleets[0];
  AllocCount allocs;
  double span_s = 0;
  const std::vector<UnitTime> traced = RepeatUnits(args.seconds * 0.4, 3, [&] {
    const Stopwatch stopwatch;
    StartAllocCounting();
    const auto span_start = Clock::now();
    const harness::WorkloadResult result = harness::RunWorkload(fleet.options);
    span_s += SecondsSince(span_start);
    const AllocCount counted = StopAllocCounting();
    allocs.allocs += counted.allocs;
    allocs.bytes += counted.bytes;
    report.Attempt(fleet.plan.size(), FailedFlows(result, fleet.first, fleet.plan));
    return stopwatch.Elapsed();
  });
  const double runs = static_cast<double>(traced.size());
  double traced_wall_s = 0;
  for (const UnitTime& p : traced) traced_wall_s += p.wall_s;
  const double events = static_cast<double>(fleet.first.total_events);
  const double plan_flows = static_cast<double>(fleet.first.completed);
  const double untraced_wall_s = FastestUnit(fleet.units).wall_s;

  report.Note("sim events per run of the first plan: " +
              std::to_string(fleet.first.total_events));
  report.Add("trace.overhead_frac", FastestUnit(traced).wall_s / untraced_wall_s - 1,
             "frac");
  report.Add("trace.coverage", span_s / traced_wall_s, "frac");
  report.Add("alloc.per_flow", static_cast<double>(allocs.allocs) / runs / plan_flows,
             "count");
  report.Add("alloc.bytes_per_flow",
             static_cast<double>(allocs.bytes) / runs / plan_flows, "B");
  report.Add("sim.events_per_flow", events / plan_flows, "count");
  report.Add("sim.ns_per_event", untraced_wall_s * 1e9 / events, "ns");
  report.Add("harness.plan_ms", setup_s * 1e3, "ms");
}

}  // namespace perfbench
