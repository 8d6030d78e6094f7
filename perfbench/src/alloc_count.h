// Counting global operator new, linked only into the benchmark binary.
// Counting is off until a traced region turns it on; while on, every
// allocation from any thread bumps two relaxed atomics.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Start counting from zero.
void StartAllocCounting();
/// Stop counting and return what was counted since the last start.
AllocCount StopAllocCounting();

}  // namespace perfbench
