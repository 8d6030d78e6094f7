// Allocation gate: each run below must not allocate more than a pinned
// number of times. The counts are exact and repeat for the seeds, so any
// new allocation on a datapath fails this test:
//   - the 8 MB two-path engine transfer (engine_transfer.h), between
//     Connect and the fin byte: one extra allocation per packet moves it
//     by thousands. The steady-state send, network and receive paths
//     reuse their storage (docs/PERFORMANCE.md), so what is left is
//     per-connection set-up and warm-up, well under one allocation per
//     client packet;
//   - the 1000-connection multipath fleet (one job, so the shards run
//     inline on this thread, where the counter sees them): one extra
//     allocation per flow moves it by 1,000, and handshakes, timers and
//     per-connection set-up dominate it;
//   - one lossy MPTCP RunTransfer over the golden lossy paths, with no
//     metrics or qlog output: the tcpsim datapath. Payloads are encoded
//     into and decoded from the datagram in place, so what is left is
//     per-segment bookkeeping and the copies of out-of-order data.
// Together with the golden label's exact event counts this is the CI perf
// gate: counters that cannot drift with host load.
//
// This binary counts through its own global operator new, so it is not
// built under the sanitizers (which replace the allocator) or MPQ_AUDIT
// (whose checks allocate); see tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine_transfer.h"
#include "harness/runner.h"

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;

void* Allocate(std::size_t size) {
  if (g_counting) {
    ++g_allocs;
    g_bytes += size;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void BeginCounting() {
  g_allocs = 0;
  g_bytes = 0;
  g_counting = true;
}

void EndCounting() { g_counting = false; }

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpq {
namespace {

/// Measured on each run; lower one when a change removes allocations.
constexpr std::uint64_t kAllocBudget = 2060;
constexpr std::uint64_t kFleetAllocBudget = 171940;
constexpr std::uint64_t kLossyMptcpAllocBudget = 4235;

TEST(AllocBudget, EngineTransferTwoPath8MB) {
  const golden::EngineTransfer t =
      golden::RunEngineTransfer({&BeginCounting, &EndCounting});
  ASSERT_TRUE(t.finished);
  ASSERT_EQ(t.received, golden::kSize);
  ASSERT_EQ(t.client_packets, 9580u);
  RecordProperty("allocs", static_cast<int>(g_allocs));
  RecordProperty("bytes", static_cast<int>(g_bytes));
  EXPECT_LT(g_allocs, t.client_packets) << "allocations per client packet >= 1";
  EXPECT_LE(g_allocs, kAllocBudget)
      << g_allocs << " allocations (" << g_bytes << " bytes) in the timed "
      << "region, budget " << kAllocBudget;
}

TEST(AllocBudget, MultipathFleet1000) {
  const harness::WorkloadOptions options = golden::Fleet1000Options();
  BeginCounting();
  const harness::WorkloadResult result = harness::RunWorkload(options);
  EndCounting();
  ASSERT_EQ(result.completed, 1000u);
  ASSERT_EQ(result.total_events, 48236u);
  RecordProperty("allocs", static_cast<int>(g_allocs));
  RecordProperty("bytes", static_cast<int>(g_bytes));
  EXPECT_LE(g_allocs, kFleetAllocBudget)
      << g_allocs << " allocations (" << g_bytes << " bytes) for 1000 "
      << "flows, budget " << kFleetAllocBudget;
}

TEST(AllocBudget, LossyMptcpTransfer) {
  const std::array<sim::PathParams, 2> paths = golden::LossyPaths();
  harness::TransferOptions options;
  options.transfer_size = ByteCount{2 * 1024 * 1024};
  options.seed = 1;
  BeginCounting();
  const harness::TransferResult result =
      harness::RunTransfer(harness::Protocol::kMptcp, paths, options);
  EndCounting();
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.bytes_received, options.transfer_size);
  ASSERT_EQ(result.completion_time, 6410785);
  RecordProperty("allocs", static_cast<int>(g_allocs));
  RecordProperty("bytes", static_cast<int>(g_bytes));
  EXPECT_LE(g_allocs, kLossyMptcpAllocBudget)
      << g_allocs << " allocations (" << g_bytes << " bytes) for the "
      << "transfer, budget " << kLossyMptcpAllocBudget;
}

}  // namespace
}  // namespace mpq
