// Seeded violation: raw MonotonicNanos() timing in protocol code.
// Library code does not time itself; host time is measured from
// outside (perfbench --trace 1). The suppressed read below is the
// sanctioned escape hatch for a reading the tracer API carries.
// expect: host-clock
#include "common/clock.h"

unsigned long long TimeSomething() {
  const auto t0 = MonotonicNanos();
  return MonotonicNanos() - t0;  // NOLINT(mpq-host-clock): tracer reading
}
