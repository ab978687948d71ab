#!/usr/bin/env bash
# One-command pre-merge gate: everything CI runs, in the order a failure
# is cheapest to see.
#
#   1. tier-1: configure + build + full ctest of the default tree, then
#      the same suite again with DWATCH_SIMD=off (every kernel on the
#      scalar backend, seconds, no rebuild). The admission-ladder
#      overload invariants (no anchor shed, tier 0 below capacity) run
#      here as the FleetStorm ctest;
#   2. recovery: the self-healing label on the same tree (fast re-run,
#      isolates a recovery regression from an unrelated tier-1 one);
#      then the scenario label (the compliance suite) the same way,
#      then the streaming label (incremental-vs-batch parity + early
#      sealing through the serve layer);
#   3. bench trajectory: a PINNED Release(+LTO) tree is configured just
#      for benches, every bench_*_json target runs there (latency,
#      recovery with 5 repetitions, streaming, scenarios), and its
#      BENCH_*.json is staged at the repo root (committed per PR).
#      A bench that emits no JSON fails the gate, and so does JSON whose
#      context reports a debug build or active CPU frequency scaling —
#      debug numbers must never enter the trajectory. bench_streaming is
#      also a gate: a TTFF or scaling regression fails this stage;
#   4. telemetry endpoint: the example self-scrapes every endpoint over
#      a real socket (strict JSON validation), then an external curl
#      scrapes /metrics and /healthz from outside the process — any
#      non-200 or invalid body fails the gate;
#   5. asan_check: fault + obs + recovery labels under ASan/UBSan;
#   6. tsan_check: the concurrency label under TSan;
#   7. obs_off_check: configure+build+test a DWATCH_OBS=OFF tree;
#   8. simd_off_check: configure+build+test a DWATCH_SIMD=OFF tree.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run() {
  echo
  echo "==> $*"
  "$@"
}

# --- 1. tier-1: default tree, full suite --------------------------------
run cmake -S . -B build
run cmake --build build --parallel "$JOBS"
run ctest --test-dir build --output-on-failure

# --- 1b. the same tree on the scalar backend ----------------------------
# A scalar-kernel break shows up here, long before stage 8's nested
# rebuild.
run env DWATCH_SIMD=off ctest --test-dir build --output-on-failure

# --- 2. recovery label, explicitly --------------------------------------
run ctest --test-dir build -L recovery --output-on-failure

# --- 2b. scenario compliance suite, explicitly ---------------------------
# Every registered scenario through the full stack; isolates a scenario
# regression from an unrelated tier-1 one.
run ctest --test-dir build -L scenario --output-on-failure

# --- 2c. streaming parity suite, explicitly ------------------------------
# The incremental spectral path against the batch oracle over every
# registered scenario, plus the early-seal serve tests. The label is
# hyphenated (streaming-stress-tsan) so the same binaries also join the
# stress and tsan gates; -L matches on substrings of the label list.
run ctest --test-dir build -L streaming --output-on-failure

# --- 3. bench trajectory: pinned Release(+LTO) tree ---------------------
# Benches run in their own tree so the trajectory numbers are always
# optimized builds, whatever CMAKE_BUILD_TYPE the default tree uses.
# Target discovery is from the build system itself, so a new
# bench_X_json target joins the gate without touching this script.
run cmake -S . -B build-bench -DCMAKE_BUILD_TYPE=Release -DDWATCH_LTO=ON \
  -DDWATCH_BUILD_TESTS=OFF -DDWATCH_BUILD_EXAMPLES=OFF
run cmake --build build-bench --parallel "$JOBS"
BENCH_TARGETS="$(cmake --build build-bench --target help \
  | grep -oE 'bench_[a-z0-9_]+_json' | sort -u)"
if [ -z "${BENCH_TARGETS}" ]; then
  echo "check.sh: no bench_*_json targets found" >&2
  exit 1
fi
for target in ${BENCH_TARGETS}; do
  json="BENCH_${target#bench_}"
  json="${json%_json}.json"
  rm -f "build-bench/${json}"
  run cmake --build build-bench --target "${target}"
  if [ ! -s "build-bench/${json}" ]; then
    echo "check.sh: ${target} emitted no JSON (build-bench/${json} missing or empty)" >&2
    exit 1
  fi
  # Refuse to stage numbers from a debug build or a throttling CPU: the
  # context block is stamped by bench_reporter.hpp from the binary's own
  # build configuration, so these greps are authoritative.
  if grep -q '"library_build_type": "debug"' "build-bench/${json}"; then
    echo "check.sh: ${json} was produced by a DEBUG build; not staging" >&2
    exit 1
  fi
  if grep -q '"cpu_scaling_enabled": true' "build-bench/${json}"; then
    echo "check.sh: ${json} was produced with CPU frequency scaling on; not staging" >&2
    exit 1
  fi
  run cp "build-bench/${json}" "${json}"
done

# The streaming bench is ALSO a gate binary (it exits 1 on a violated
# invariant), but belt-and-braces: refuse to merge a BENCH_streaming.json
# whose counters admit a TTFF or scaling regression, even one produced
# by hand outside this script.
if grep -Eq '"ttff_regressed":\s*[1-9]' BENCH_streaming.json; then
  echo "check.sh: BENCH_streaming.json reports early-seal TTFF >= epoch-boundary TTFF" >&2
  exit 1
fi
if grep -Eq '"scaling_regressed":\s*[1-9]' BENCH_streaming.json; then
  echo "check.sh: BENCH_streaming.json reports super-linear fleet-epoch scaling" >&2
  exit 1
fi

# --- 4. telemetry endpoint: self-scrape, then an external curl ----------
# The example's --selfcheck mode is the strict gate (real loopback
# socket, strict JSON validation, non-zero exit on any violation).
run ./build/examples/telemetry_endpoint --selfcheck
# Then prove an EXTERNAL client sees the same thing: serve for a few
# seconds and curl /metrics and /healthz from outside the process.
PORT_FILE="$(mktemp)"
./build/examples/telemetry_endpoint --selfcheck --serve-seconds 5 \
  --port-file "${PORT_FILE}" &
TELEMETRY_PID=$!
for _ in $(seq 1 50); do
  [ -s "${PORT_FILE}" ] && break
  sleep 0.1
done
TELEMETRY_PORT="$(cat "${PORT_FILE}")"
if [ -z "${TELEMETRY_PORT}" ]; then
  echo "check.sh: telemetry endpoint never wrote its port" >&2
  kill "${TELEMETRY_PID}" 2>/dev/null || true
  exit 1
fi
echo "==> curl 127.0.0.1:${TELEMETRY_PORT}/metrics + /healthz"
curl -fsS "http://127.0.0.1:${TELEMETRY_PORT}/metrics" \
  | grep -q '^dwatch_slo_budget_remaining' \
  || { echo "check.sh: /metrics scrape missing SLO gauges" >&2; exit 1; }
HEALTHZ_CODE="$(curl -s -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:${TELEMETRY_PORT}/healthz")"
case "${HEALTHZ_CODE}" in
  200|503) ;;  # both are well-formed health verdicts
  *) echo "check.sh: /healthz answered ${HEALTHZ_CODE}" >&2; exit 1 ;;
esac
wait "${TELEMETRY_PID}"
rm -f "${PORT_FILE}"

# --- 5. AddressSanitizer tree: stress|obs|recovery ----------------------
run cmake -S . -B build-asan -DDWATCH_SANITIZE=address \
  -DDWATCH_BUILD_BENCH=OFF -DDWATCH_BUILD_EXAMPLES=OFF
run cmake --build build-asan --parallel "$JOBS"
run cmake --build build-asan --target asan_check

# --- 6. ThreadSanitizer tree: tsan label --------------------------------
run cmake -S . -B build-tsan -DDWATCH_SANITIZE=thread \
  -DDWATCH_BUILD_BENCH=OFF -DDWATCH_BUILD_EXAMPLES=OFF
run cmake --build build-tsan --parallel "$JOBS"
run cmake --build build-tsan --target tsan_check

# --- 7. uninstrumented tree must stay green -----------------------------
run cmake --build build --target obs_off_check

# --- 8. scalar-only tree must stay green --------------------------------
run cmake --build build --target simd_off_check

echo
echo "check.sh: all gates passed"
