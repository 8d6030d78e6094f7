#!/usr/bin/env python3
"""Build and run the MPQUIC benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bulk_mp --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary from the checkout's sources with CMake (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs
it. The binary prints one "name value unit" line per metric and, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, holding every metric it measured.
This script passes the table through and prints that object again with
only the metrics BENCHMARK.json lists for the run mode: `end_to_end` for
--trace 0, `per_layer` for --trace 1. The exit code is 0 only when every
output check passed. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk_mp", "fleet_mp", "wsp_lossy")
# A first run builds and measures within 900 s; later runs within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group and return (exit code, stdout if
    captured); on timeout kill the whole group and wait for it, so no
    compiler or benchmark process outlives us."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no mpquic sources at {ROOT}", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # CMake writes the Makefile last, so its absence means no finished
    # configure step.
    if not (build_dir / "Makefile").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if run(step, deadline - time.monotonic(), stdout=sys.stderr)[0] != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def select_metrics(result, specs, zero_missing):
    """Keep in `result` exactly the metrics of `specs` (BENCHMARK.json
    entries), in their order. A metric the run did not measure reads 0 when
    `zero_missing` (a per-layer metric of a layer the workload does not
    exercise) and is a failure otherwise; so is a unit that differs from
    the listed one. Returns the failures."""
    measured = result["metrics"]
    selected = {}
    failures = []
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metric = measured.get(name)
        if metric is None:
            if not zero_missing:
                failures.append(f"metric {name} missing")
            metric = {"value": 0, "unit": unit}
        elif metric["unit"] != unit:
            failures.append(f"unit of {name} is {metric['unit']}, not {unit}")
        selected[name] = metric
    result["metrics"] = selected
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        if not build(build_dir):
            return 1
        code, out = run([str(build_dir / "perfbench"),
                         "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--work-dir", str(build_dir)], RUN_TIMEOUT_S,
                        stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {' '.join(e.cmd)}", file=sys.stderr)
        return 1

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        print(f"perfbench: no result line (exit code {code})", file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    failures = select_metrics(
        result, spec["per_layer"] if args.trace else spec["end_to_end"],
        zero_missing=bool(args.trace))
    for failure in failures:
        print(f"# FAILED: {failure}")
    result["attempted"] += len(failures)
    result["failed"] += len(failures)
    result["correct"] = result["correct"] and not failures
    print(json.dumps(result))
    return code if code != 0 else (1 if failures else 0)


if __name__ == "__main__":
    sys.exit(main())
