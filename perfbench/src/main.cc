// perfbench: the MPQUIC benchmark binary. Normally started by run.py:
//
//   perfbench --workload bulk_mp|fleet_mp|wsp_lossy --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics with nothing but the program
// in the timed region; --trace 1 runs the same workload again with the
// benchmark's own spans and counters around the program's calls and adds
// the per-layer metrics. The JSON result line holds every metric the run
// measured; run.py keeps the ones BENCHMARK.json lists for the run mode.
// Every metric is listed in README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bulk_mp|fleet_mp|wsp_lossy --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
      continue;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args.work_dir = value;
      continue;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0)) return Usage("--seconds must be positive");
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return Usage("unknown flag");
    }
    if (end == value || *end != '\0') return Usage("malformed number");
  }

  perfbench::Report report;
  if (args.workload == "bulk_mp") {
    perfbench::RunBulk(args, report);
  } else if (args.workload == "fleet_mp") {
    perfbench::RunFleet(args, report);
  } else if (args.workload == "wsp_lossy") {
    perfbench::RunWsp(args, report);
  } else {
    return Usage("unknown workload");
  }
  return report.Print(args);
}
