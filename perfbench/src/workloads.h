// The benchmark's three workloads (README.md gives each one's rationale).
// Each fills `report` with every metric the run mode asks for: the
// end-to-end set for an untraced run, the per-layer set for a traced one.
#pragma once

#include "report.h"

namespace perfbench {

void RunBulk(const Args& args, Report& report);
void RunFleet(const Args& args, Report& report);
void RunWsp(const Args& args, Report& report);

}  // namespace perfbench
