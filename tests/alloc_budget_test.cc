// Allocation gate: the 8 MB two-path engine transfer (engine_transfer.h)
// must not allocate more than a pinned number of times between Connect and
// the fin byte. The count is exact and repeats for the seeds, so any new
// allocation on the datapath fails this test; one extra allocation per
// packet moves it by thousands. The steady-state send, network and
// receive paths reuse their storage (docs/PERFORMANCE.md), so what is
// left is per-connection set-up and warm-up, well under one allocation
// per client packet.
//
// This binary counts through its own global operator new, so it is not
// built under the sanitizers (which replace the allocator) or MPQ_AUDIT
// (whose checks allocate); see tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine_transfer.h"

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

/// Measured on this transfer; lower it when a change removes allocations.
constexpr std::uint64_t kAllocBudget = 2071;

TEST(AllocBudget, EngineTransferTwoPath8MB) {
  const golden::EngineTransfer t =
      golden::RunEngineTransfer({&BeginCounting, &EndCounting});
  ASSERT_TRUE(t.finished);
  ASSERT_EQ(t.received, golden::kSize);
  ASSERT_EQ(t.client_packets, 9579u);
  RecordProperty("allocs", static_cast<int>(g_allocs));
  RecordProperty("bytes", static_cast<int>(g_bytes));
  EXPECT_LT(g_allocs, t.client_packets) << "allocations per client packet >= 1";
  EXPECT_LE(g_allocs, kAllocBudget)
      << g_allocs << " allocations (" << g_bytes << " bytes) in the timed "
      << "region, budget " << kAllocBudget;
}

}  // namespace
}  // namespace mpq
