// Micro-benchmarks (google-benchmark) of the engine hot paths outside the
// codecs: simulator event and timer throughput, received-range tracking,
// stream reassembly, scheduler decisions, WSP design generation, and the
// pattern payload's bulk fill and check.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cc/newreno.h"
#include "common/source.h"
#include "expdesign/wsp.h"
#include "quic/ack_tracker.h"
#include "quic/scheduler.h"
#include "quic/streams.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace {

using namespace mpq;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  // Throughput of schedule+dispatch for a batch of timers.
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.Schedule(i % 977, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  // Half of all events get cancelled before the run: each cancel takes
  // its entry out of the heap in place.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::Simulator::EventId> ids;
    ids.reserve(state.range(0));
    for (int i = 0; i < state.range(0); ++i) {
      ids.push_back(sim.Schedule(i % 977, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.Cancel(ids[i]);
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorCancelHeavy)->Arg(10000);

void BM_TimerRearm(benchmark::State& state) {
  // 1,000 timers, each re-armed 16 times to a later deadline while
  // pending (an RTO pushed back by every ACK), then all fire.
  constexpr int kTimers = 1000;
  constexpr int kRearms = 16;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::Timer>> timers;
    timers.reserve(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<sim::Timer>(sim, [] {}));
    }
    for (int arm = 0; arm < kRearms; ++arm) {
      for (int i = 0; i < kTimers; ++i) {
        timers[i]->SetAt(arm * 1000 + i % 977);
      }
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * kTimers * kRearms);
}
BENCHMARK(BM_TimerRearm);

void BM_ReceivedTrackerInOrder(benchmark::State& state) {
  for (auto _ : state) {
    quic::ReceivedPacketTracker tracker;
    for (PacketNumber pn = PacketNumber{1}; pn <= 10000; ++pn) {
      tracker.OnPacketReceived(pn, static_cast<TimePoint>(pn));
    }
    benchmark::DoNotOptimize(tracker.BuildAckRanges());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ReceivedTrackerInOrder);

void BM_ReceivedTrackerLossy(benchmark::State& state) {
  // Every 10th packet missing: ~1000 live ranges, capped ACK at 256.
  for (auto _ : state) {
    quic::ReceivedPacketTracker tracker;
    for (PacketNumber pn = PacketNumber{1}; pn <= 10000; ++pn) {
      if (pn % 10 == 0) continue;
      tracker.OnPacketReceived(pn, static_cast<TimePoint>(pn));
    }
    benchmark::DoNotOptimize(tracker.BuildAckRanges());
  }
  state.SetItemsProcessed(state.iterations() * 9000);
}
BENCHMARK(BM_ReceivedTrackerLossy);

void BM_RecvStreamReassemblyReversed(benchmark::State& state) {
  // Worst-case arrival order: last chunk first.
  constexpr int kChunks = 512;
  for (auto _ : state) {
    quic::RecvStream stream(StreamId{3});
    ByteCount delivered{};
    stream.SetSink([&delivered](ByteCount, std::span<const std::uint8_t> d,
                                bool) { delivered += d.size(); });
    const std::vector<std::uint8_t> payload(1300, 7);
    quic::StreamFrame frame;
    frame.stream_id = StreamId{3};
    frame.length = ByteCount{payload.size()};
    frame.data = payload;
    for (int i = kChunks - 1; i >= 0; --i) {
      frame.offset = static_cast<ByteCount>(i) * 1300;
      stream.OnStreamFrame(frame);
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * kChunks * 1300);
}
BENCHMARK(BM_RecvStreamReassemblyReversed);

void BM_SchedulerSelect(benchmark::State& state) {
  // Per-packet path-selection cost with 4 measured paths.
  std::vector<std::unique_ptr<quic::Path>> paths;
  std::vector<quic::Path*> pointers;
  for (int i = 0; i < 4; ++i) {
    paths.push_back(std::make_unique<quic::Path>(
        static_cast<PathId>(i), sim::Address{1, 0}, sim::Address{2, 0},
        std::make_unique<cc::NewReno>()));
    paths.back()->rtt().AddSample((10 + i * 15) * kMillisecond, 0);
    pointers.push_back(paths.back().get());
  }
  quic::LowestRttScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.SelectPath(pointers, ByteCount{1350}));
  }
}
BENCHMARK(BM_SchedulerSelect);

void BM_WspDesign253(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(expdesign::WspDesign(8, 253, 42));
  }
}
BENCHMARK(BM_WspDesign253);

// The design perfbench's wsp_lossy builds: 4 scenarios of the 8-factor
// lossy class.
void BM_WspDesign4(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(expdesign::WspDesign(8, 4, 42));
  }
}
BENCHMARK(BM_WspDesign4);

// Every PatternSource read (each STREAM frame or TCP segment a harness
// transfer sends) runs the fill, and every harness receiver runs the check
// on the bytes it is delivered. At 1,024 B the time per iteration is the
// cost per KB; 1,350 B is about one packet's payload. 15, 40 and 200 B
// stand for the short STREAM frames of small flows, where the kernel's
// set-up is paid over a few blocks, or none below 16 B.
void BM_PatternFill(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const PatternSource source(7, ByteCount{1ULL << 40});
  std::vector<std::uint8_t> out(len);
  ByteCount offset{static_cast<std::uint64_t>(state.range(0)) * 3};
  for (auto _ : state) {
    source.Read(offset, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    offset += len;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternFill)->Arg(15)->Arg(40)->Arg(200)->Arg(1024)->Arg(1350);

void BM_PatternCheck(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const ByteCount offset{static_cast<std::uint64_t>(state.range(0)) * 3};
  std::vector<std::uint8_t> data(len);
  PatternSource(7, offset + len).Read(offset, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.data());
    benchmark::DoNotOptimize(CountPatternMismatches(7, offset, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternCheck)->Arg(15)->Arg(40)->Arg(200)->Arg(1024)->Arg(1350);

}  // namespace

BENCHMARK_MAIN();
