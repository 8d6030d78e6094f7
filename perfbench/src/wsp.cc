// wsp_lossy: the paper's own experiment (§4.1, Figs. 5/6) —
// harness::EvaluateClass over twelve 4-scenario WSP designs of the low-BDP
// class with random losses, all four protocols, 1 MB transfers, on the
// harness worker pool. The only workload that runs tcpsim and the pool, and
// random loss drives recovery and retransmission.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "expdesign/scenarios.h"
#include "harness/figures.h"
#include "harness/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mpq;

constexpr expdesign::ScenarioClass kClass = expdesign::ScenarioClass::kLowBdpLosses;
// The sweep is kDesigns WSP designs (seeds derived from the run's seed) of
// kScenarios scenarios each, 48 scenarios in all, and a timed unit is one
// EvaluateClass of one design. A whole 48-scenario sweep takes about a
// second, and on a shared machine a unit that long seldom falls entirely
// into a quiet moment; units of a tenth of that do, so a sweep timed at
// the quietest unit is much steadier. Four scenarios, not three: about
// one three-scenario design in eighty takes WspDesign's slow path (some
// 250 ms instead of 7), which EvaluateClass repeats inside its unit; no
// four-scenario design out of 3200 tried did.
constexpr std::size_t kScenarios = 4;
constexpr std::size_t kDesigns = 12;
// Two workers: the pool is exercised, and the benchmark leaves cores to
// the other tenants of a shared machine instead of contending with them.
constexpr int kJobs = 2;
constexpr ByteCount kTransferSize{1024 * 1024};
// Simulated time limit per transfer, long enough for the slowest corner
// of the design (0.1 Mbps paths with 2.5% loss) to finish.
constexpr TimePoint kTimeLimit = 4000 * kSecond;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr harness::Protocol kProtocols[] = {
    harness::Protocol::kTcp, harness::Protocol::kQuic,
    harness::Protocol::kMptcp, harness::Protocol::kMpquic};

harness::ClassEvalOptions SweepOptions(std::uint64_t seed) {
  harness::ClassEvalOptions options;
  options.scenario_count = kScenarios;
  options.repetitions = 1;
  options.transfer_size = kTransferSize;
  options.seed = seed;
  options.time_limit = kTimeLimit;
  options.progress = false;
  options.jobs = kJobs;
  return options;
}

/// One (scenario, initial path, protocol) work item, in EvaluateClass's
/// item order, with the result EvaluateClass reported for it.
struct Item {
  const expdesign::Scenario* scenario = nullptr;
  int path = 0;
  harness::Protocol protocol = harness::Protocol::kTcp;
  harness::TransferResult result;
};

std::vector<Item> Flatten(const std::vector<harness::ScenarioOutcome>& outcomes) {
  std::vector<Item> items;
  for (const auto& outcome : outcomes) {
    for (int path = 0; path < 2; ++path) {
      for (const harness::Protocol protocol : kProtocols) {
        Item item{&outcome.scenario, path, protocol, {}};
        switch (protocol) {
          case harness::Protocol::kTcp: item.result = outcome.tcp[path]; break;
          case harness::Protocol::kQuic: item.result = outcome.quic[path]; break;
          case harness::Protocol::kMptcp: item.result = outcome.mptcp[path]; break;
          case harness::Protocol::kMpquic: item.result = outcome.mpquic[path]; break;
        }
        items.push_back(item);
      }
    }
  }
  return items;
}

bool SameResult(const harness::TransferResult& a, const harness::TransferResult& b) {
  return a.completed == b.completed && a.completion_time == b.completion_time &&
         a.bytes_received == b.bytes_received && a.goodput_mbps == b.goodput_mbps &&
         a.data_integrity_errors == b.data_integrity_errors;
}

bool Good(const harness::TransferResult& r) {
  return r.completed && r.data_integrity_errors == 0 &&
         r.bytes_received == kTransferSize;
}

/// Items of `items` that failed or differ from `first` (same order).
std::uint64_t FailedItems(const std::vector<Item>& items,
                          const std::vector<Item>& first) {
  if (items.size() != first.size()) return first.size();
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!Good(items[i].result) || !SameResult(items[i].result, first[i].result) ||
        items[i].scenario->index != first[i].scenario->index) {
      ++failed;
    }
  }
  return failed;
}

/// The TransferOptions EvaluateClass gives an item (repetition 0).
harness::TransferOptions ItemOptions(const harness::ClassEvalOptions& options,
                                     const Item& item) {
  harness::TransferOptions run = options.base_options;
  run.transfer_size = options.transfer_size;
  run.time_limit = options.time_limit;
  run.initial_path = item.path;
  run.seed = options.seed + 1000003ULL * static_cast<std::uint64_t>(item.scenario->index);
  return run;
}

/// One of the run's designs: its sweep options, the set-up's copy of the
/// design, the warm-up sweep's outcomes (the reference every later sweep
/// must repeat) and the timed sweeps.
struct Sweep {
  harness::ClassEvalOptions options;
  std::vector<expdesign::Scenario> design;
  std::vector<harness::ScenarioOutcome> outcomes;
  std::vector<Item> items;
  std::vector<UnitTime> units;
};

}  // namespace

void RunWsp(const Args& args, Report& report) {
  std::vector<Sweep> sweeps(kDesigns);
  for (std::size_t d = 0; d < kDesigns; ++d) {
    sweeps[d].options = SweepOptions(DeriveSeed(args.seed, 20, d));
  }

  // Set-up: the WSP designs. EvaluateClass derives the same design from
  // the same seed inside its timed call; these copies drive the checks.
  SetupTimer setup([&] {
    for (Sweep& sweep : sweeps) {
      sweep.design = expdesign::GenerateScenarios(kClass, sweep.options.scenario_count,
                                                  sweep.options.seed);
    }
  });

  // Warm-up: one sweep per design; its per-item results are the reference.
  for (Sweep& sweep : sweeps) {
    sweep.outcomes = harness::EvaluateClass(kClass, sweep.options);
    sweep.items = Flatten(sweep.outcomes);
    std::uint64_t failed = FailedItems(sweep.items, sweep.items);
    for (std::size_t s = 0; s < sweep.design.size() && s < sweep.outcomes.size(); ++s) {
      if (sweep.outcomes[s].scenario.index != sweep.design[s].index ||
          sweep.outcomes[s].scenario.paths[0].capacity_mbps !=
              sweep.design[s].paths[0].capacity_mbps) {
        failed = sweep.items.size();
      }
    }
    if (sweep.outcomes.size() != sweep.design.size()) failed = sweep.items.size();
    report.Attempt(sweep.items.size(), failed);
  }

  std::size_t units_run = 0;
  auto run_unit = [&]() {
    Sweep& sweep = sweeps[units_run++ % kDesigns];
    const Stopwatch stopwatch;
    const auto outcomes = harness::EvaluateClass(kClass, sweep.options);
    const UnitTime timed = stopwatch.Elapsed();
    report.Attempt(sweep.items.size(), FailedItems(Flatten(outcomes), sweep.items));
    sweep.units.push_back(timed);
    return timed;
  };
  const double budget = args.trace ? args.seconds * 0.4 : args.seconds;
  const std::vector<UnitTime> units =
      RepeatUnits(budget, 2 * kDesigns, run_unit, &setup);
  const double setup_s = setup.Fastest();
  report.NoteUnits("untraced", units);

  // Host time of the whole sweep: one unit of every design, at the run's
  // quietest moment.
  std::vector<std::vector<UnitTime>> design_units;
  std::vector<double> fcts_ms, mpquic_benefit;
  double payload_bytes = 0, items = 0;
  for (const Sweep& sweep : sweeps) {
    design_units.push_back(sweep.units);
    for (const Item& item : sweep.items) {
      fcts_ms.push_back(static_cast<double>(item.result.completion_time) / kMillisecond);
      payload_bytes += static_cast<double>(item.result.bytes_received.value());
    }
    items += static_cast<double>(sweep.items.size());
    const harness::BenefitSeries benefits = harness::ComputeBenefits(sweep.outcomes);
    mpquic_benefit.insert(mpquic_benefit.end(), benefits.mpquic_best_first.begin(),
                          benefits.mpquic_best_first.end());
    mpquic_benefit.insert(mpquic_benefit.end(), benefits.mpquic_worst_first.begin(),
                          benefits.mpquic_worst_first.end());
  }
  const UnitTime pass = QuietPassTime(design_units);
  const Tail tail = TailPercentile(fcts_ms);

  report.Note("sweep = " + std::to_string(kDesigns) + " designs x " +
              std::to_string(kScenarios) +
              " scenarios x 2 initial paths x 4 protocols; unit = one EvaluateClass of one "
              "design at jobs " + std::to_string(kJobs) + "; units timed: " +
              std::to_string(units.size()) + "; sim_fct_tail_ms is the " +
              tail.label + " of " + std::to_string(fcts_ms.size()) + " transfers");
  report.Add("setup_s", setup_s, "s");
  report.Add("wall_s", pass.wall_s, "s");
  report.Add("cpu_s", pass.cpu_s, "s");
  report.Add("payload_mb_per_s", payload_bytes / kMiB / pass.wall_s, "MB/s");
  report.Add("flows_per_s", items / pass.wall_s, "1/s");
  report.Add("sim_fct_p50_ms", Median(fcts_ms), "sim_ms");
  report.Add("sim_fct_tail_ms", tail.value, "sim_ms");
  report.Add("sim_mp_benefit", Median(mpquic_benefit), "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  // ---- traced run: the sweep's work items replayed serially through
  // harness::RunTransfer, first bare (the overhead baseline), then with a
  // span per item and allocation counting. Both must reproduce the sweep's
  // per-item results exactly.
  const Stopwatch bare_watch;
  for (const Sweep& sweep : sweeps) {
    for (const Item& item : sweep.items) {
      const auto result = harness::RunTransfer(item.protocol, item.scenario->paths,
                                               ItemOptions(sweep.options, item));
      report.Attempt(1, SameResult(result, item.result) ? 0 : 1);
    }
  }
  const double bare_s = bare_watch.Elapsed().wall_s;

  std::vector<double> item_ms;
  double tcp_ms = 0, quic_ms = 0, tcp_n = 0, quic_n = 0;
  // Slowest item of a design over that design's fastest unit, the largest
  // over the designs: how much of a unit its critical path takes.
  double critical_frac = 0;
  std::uint64_t mismatches = 0;
  const Stopwatch traced_watch;
  StartAllocCounting();
  for (const Sweep& sweep : sweeps) {
    double slowest_ms = 0;
    for (const Item& item : sweep.items) {
      const auto start = Clock::now();
      const auto result = harness::RunTransfer(item.protocol, item.scenario->paths,
                                               ItemOptions(sweep.options, item));
      const double ms = SecondsSince(start) * 1e3;
      item_ms.push_back(ms);
      slowest_ms = std::max(slowest_ms, ms);
      if (harness::IsQuicFamily(item.protocol)) {
        quic_ms += ms;
        ++quic_n;
      } else {
        tcp_ms += ms;
        ++tcp_n;
      }
      if (!SameResult(result, item.result)) ++mismatches;
    }
    critical_frac =
        std::max(critical_frac, slowest_ms / 1e3 / FastestUnit(sweep.units).wall_s);
  }
  const AllocCount allocs = StopAllocCounting();
  const double traced_s = traced_watch.Elapsed().wall_s;
  report.Attempt(item_ms.size(), mismatches);
  if (mismatches != 0) report.Fail("serial RunTransfer replay differs from EvaluateClass");

  // QUIC-family items once more with the program's MetricsTracer on the
  // sending connection, for the loss and retransmission counters.
  const std::string metrics_path = args.work_dir + "/wsp_metrics.ndjson";
  std::filesystem::remove(metrics_path);
  for (const Sweep& sweep : sweeps) {
    for (const Item& item : sweep.items) {
      if (!harness::IsQuicFamily(item.protocol)) continue;
      harness::TransferOptions run = ItemOptions(sweep.options, item);
      run.metrics_path = metrics_path;
      const auto result = harness::RunTransfer(item.protocol, item.scenario->paths, run);
      report.Attempt(1, SameResult(result, item.result) ? 0 : 1);
    }
  }
  std::uint64_t sent = 0, lost = 0, bytes_sent = 0, requeued = 0, rows = 0;
  {
    std::ifstream in(metrics_path);
    for (std::string row; std::getline(in, row);) {
      ++rows;
      sent += SumJsonCounters(row, "\"packets_sent\":");
      lost += SumJsonCounters(row, "\"packets_lost\":");
      bytes_sent += SumJsonCounters(row, ".bytes_sent\":");
      requeued += SumJsonCounters(row, "\"frames_requeued_bytes\":");
    }
  }
  std::filesystem::remove(metrics_path);
  if (rows != static_cast<std::uint64_t>(quic_n) || sent == 0 || bytes_sent == 0) {
    report.Fail("metrics rows of the QUIC-family replay are missing");
  }

  double span_ms = 0;
  for (const double ms : item_ms) span_ms += ms;
  report.Add("trace.overhead_frac", traced_s / bare_s - 1, "frac");
  report.Add("trace.coverage", span_ms / 1e3 / traced_s, "frac");
  report.Add("alloc.per_flow", static_cast<double>(allocs.allocs) / items, "count");
  report.Add("alloc.bytes_per_flow", static_cast<double>(allocs.bytes) / items, "B");
  report.Add("quic.retx_bytes_frac",
             static_cast<double>(requeued) / static_cast<double>(std::max<std::uint64_t>(bytes_sent, 1)),
             "frac");
  report.Add("quic.lost_pkts_frac",
             static_cast<double>(lost) / static_cast<double>(std::max<std::uint64_t>(sent, 1)),
             "frac");
  report.Add("harness.parallelism", pass.cpu_s / pass.wall_s, "ratio");
  report.Add("harness.item_ms_p50", Percentile(item_ms, 50), "ms");
  report.Add("harness.item_ms_p90", Percentile(item_ms, 90), "ms");
  report.Add("harness.item_ms_max", Percentile(item_ms, 100), "ms");
  report.Add("harness.critical_frac", critical_frac, "frac");
  report.Add("tcpsim.transfer_ms", tcp_ms / std::max(tcp_n, 1.0), "ms");
  report.Add("quic.transfer_ms", quic_ms / std::max(quic_n, 1.0), "ms");
  report.Add("expdesign.design_ms", setup_s * 1e3 / kDesigns, "ms");
}

}  // namespace perfbench
