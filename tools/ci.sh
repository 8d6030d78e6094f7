#!/usr/bin/env bash
# Local CI: static analysis first (cheap, catches style/hygiene drift),
# then build the plain, sanitized (ASan+UBSan), ThreadSanitizer, and
# MPQ_AUDIT (runtime invariant checker) configurations and run the full
# test suite under each. TSan exercises the parallel sweep harness
# (tests run EvaluateClass with --jobs > 1); the audit leg runs every
# test with per-event protocol invariants asserted (src/quic/audit.cc).
# After the matrix: bounded model checking of the event machine
# (tools/mpq_model), a 30-second wire-parser fuzz smoke (tools/fuzz_wire),
# the chaos sweep, the many-connection scale smoke (1000-connection
# workload with a --jobs determinism check), the SIMD/scalar crypto
# equivalence check (a -DMPQ_NO_SIMD build must digest-match the
# vectorized build), and the benchmark's output checks on a traced bulk_mp
# run (payload bytes and endpoint state digests).
#
# The perf gate is exact counters, not host time: stage 2 runs the
# `alloc` ctest label (`ctest -L alloc`: pinned allocation counts for the
# engine transfer, the 1000-connection fleet and a lossy MPTCP transfer)
# and the `golden` label (`ctest -L golden`: pinned simulator event
# counts and simulated outcomes), which fail on one extra allocation or
# one extra event per packet or per flow. Host time is a same-box A/B
# with perfbench (perfbench/README.md), never a threshold.
#
#   tools/ci.sh [--jobs N]
#
# Exits non-zero on the first lint finding, build, or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run_config() {
  local dir="$1"; shift
  echo "==> configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@"
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${jobs}"
  # Fast per-layer unit tests first: a broken layer fails in seconds,
  # before the full-network integration suites spin up.
  echo "==> test ${dir} (unit)"
  ctest --test-dir "${dir}" -L unit --output-on-failure -j "${jobs}"
  echo "==> test ${dir} (integration + lint)"
  ctest --test-dir "${dir}" -LE unit --output-on-failure -j "${jobs}"
}

# --- Stage 1: lint -----------------------------------------------------
# Build just the checker in the plain config, prove it still detects its
# seeded-violation corpus, then run it over the real tree.
echo "==> lint (mpq_lint)"
cmake -B build -S . > /dev/null
cmake --build build -j "${jobs}" --target mpq_lint
./build/tools/mpq_lint --selftest tools/lint_corpus
./build/tools/mpq_lint --root . src bench

# clang-tidy is optional tooling (not in the baseline container); run it
# when available, using the checks pinned in .clang-tidy.
if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> lint (clang-tidy)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  git ls-files 'src/*.cc' | xargs -P "${jobs}" -n 8 \
    clang-tidy -p build --quiet --warnings-as-errors='*'
else
  echo "==> lint (clang-tidy): not installed, skipping"
fi

# --- Stage 2: build + test matrix --------------------------------------
# The plain leg also builds with MPQ_STRICT so -Wconversion/-Wshadow
# warnings in src/ are hard errors.
run_config build -DMPQ_STRICT=ON
run_config build-asan -DMPQ_SANITIZE=ON
run_config build-tsan -DMPQ_TSAN=ON
run_config build-audit -DMPQ_AUDIT=ON

# --- Stage 3: model checking -------------------------------------------
# Bounded state-space exploration (docs/MODEL_CHECKING.md) on the audit
# build, so every reached state is double-checked by the runtime
# invariant assertions too. The selftest proves the explorer still
# catches its seeded-bug corpus; the scenario runs enumerate every
# schedule within the stated bounds — handshake exhaustively, plus
# adversarial handshake (drop budget) and a small reordered transfer
# with one drop and one duplicate. Each run takes well under a second.
echo "==> model checking (mpq_model)"
./build-audit/tools/mpq_model --selftest
./build-audit/tools/mpq_model --scenario handshake --branch 2 --max-steps 40
./build-audit/tools/mpq_model --scenario handshake --branch 3 --drops 1
./build-audit/tools/mpq_model --scenario transfer --size 1200 --branch 3 \
  --window 10000 --drops 1 --dups 1

# --- Stage 4: fuzz smoke -----------------------------------------------
# Build the wire-parser fuzz harness and give it 30 seconds. With a
# clang toolchain this is real coverage-guided libFuzzer; on GCC the
# binary is the standalone replayer (it ignores the -flags), so the
# harness and seed corpus still compile and run everywhere.
echo "==> fuzz smoke (fuzz_wire)"
cmake -B build-fuzz -S . -DMPQ_LIBFUZZER=ON > /dev/null
cmake --build build-fuzz -j "${jobs}" --target fuzz_wire
./build-fuzz/tools/fuzz_wire -max_total_time=30 -seed=1 tools/fuzz_corpus/wire

# --- Stage 5: chaos sweep ----------------------------------------------
# The ctest `chaos` label (already run per-config above) covers a 25-seed
# smoke; this stage runs the full 200-scenario fault-injection sweep from
# docs/ROBUSTNESS.md under the two configurations that catch what plain
# builds cannot: ASan+UBSan for memory errors on the fault paths, and
# MPQ_AUDIT for protocol invariant violations on every simulated event.
for dir in build-asan build-audit; do
  echo "==> chaos sweep (${dir})"
  "./${dir}/tools/mpq_chaos" --sweep 200 --seed 1
done

# --- Stage 5b: many-connection scale smoke -----------------------------
# Seeded 1000-connection workload (bench_many_conn --smoke) under the
# two configurations that see what plain builds cannot (ASan+UBSan,
# MPQ_AUDIT), with the server-engine determinism bar enforced: --jobs 1
# and --jobs 4 must produce byte-identical KPIs and per-flow metrics.
# The ctest `scale` label (workload_test) already ran per-config above;
# this exercises the full fleet at 1000 connections.
for dir in build-asan build-audit; do
  echo "==> scale smoke (${dir})"
  "./${dir}/bench/bench_many_conn" --smoke 1000 --seed 1 --jobs 1 \
    --metrics "${dir}/scale_j1.ndjson" > "${dir}/scale_j1.json"
  "./${dir}/bench/bench_many_conn" --smoke 1000 --seed 1 --jobs 4 \
    --metrics "${dir}/scale_j4.ndjson" > "${dir}/scale_j4.json"
  cmp "${dir}/scale_j1.json" "${dir}/scale_j4.json"
  cmp "${dir}/scale_j1.ndjson" "${dir}/scale_j4.ndjson"
  ./build/tools/mpq_trace --aggregate "${dir}/scale_j1.ndjson" > /dev/null
done

# --- Stage 5c: SIMD/scalar crypto equivalence ---------------------------
# The --selftest digest sweep runs at every SIMD level the machine
# supports and exits 1 unless each matches scalar. Also build the crypto
# micro-bench with the SIMD kernels compiled out entirely
# (-DMPQ_NO_SIMD=ON) and byte-compare its sweep against the default
# build's. This is the end-to-end guarantee that both builds of the
# 8-block ChaCha20 kernel (AVX2, AVX-512VL) and the seal/open path
# produce exactly the scalar bytes — independent of the unit-test
# vectors, on the real dispatch path.
echo "==> crypto SIMD/scalar equivalence (build-nosimd)"
cmake -B build-nosimd -S . -DMPQ_NO_SIMD=ON > /dev/null
cmake --build build-nosimd -j "${jobs}" --target bench_micro_crypto
./build/bench/bench_micro_crypto --selftest > build/crypto_selftest.txt
./build-nosimd/bench/bench_micro_crypto --selftest \
  > build-nosimd/crypto_selftest.txt
cmp build/crypto_selftest.txt build-nosimd/crypto_selftest.txt
# Belt and braces: the runtime kill switch must land on the same bytes.
MPQ_NO_SIMD=1 ./build/bench/bench_micro_crypto --selftest \
  | cmp - build/crypto_selftest.txt

# --- Stage 5d: benchmark output checks ----------------------------------
# One short traced bulk_mp run of the benchmark (perfbench/README.md). It
# exits non-zero unless every delivered payload byte matches the pattern
# (memcmp against the expected payload) and the benchmark's own endpoint
# wiring reproduces ClientEndpoint's transfer, StateDigest for
# StateDigest. STREAM data travels by reference (descriptors on send,
# views into the plaintext on receive), so a lifetime bug that corrupts
# payload bytes fails here.
echo "==> benchmark checks (perfbench bulk_mp, traced)"
python3 perfbench/run.py --workload bulk_mp --seed 1 --seconds 2 --trace 1

echo "==> all configurations passed"
