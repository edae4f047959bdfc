#!/usr/bin/env sh
# Perf floors for the timing-fused execution tier, asserted against the
# freshly recorded BENCH_exec.json (tools/run_bench.sh runs this after
# the exec_tier bench).  The exactness suite (`ctest -R timing_fused`)
# pins the tiers bit-identical, so any regression caught here is pure
# lost throughput -- fail loudly instead of silently shipping a slower
# tier.
#
# Two floors:
#   BM_TimedRegion fused/reference >= MIN_SPEEDUP (default 1.5x) -- the
#     timing-tier axis itself: identical workload + full CoreTiming
#     model, per-instruction observer dispatch vs the fused block-charged
#     loop.  This is the direct measurement of the fused tier and is
#     robustly ~2x.
#   BM_MsspTier fused/reference >= MIN_LOOP (default 1.1x) -- the full
#     MSSP closed loop.  Both tiers run the same task loop and policies;
#     the task protocol, verification, and the timing model's event work
#     are tier-common and Amdahl-bound this ratio (and a noisy/throttled
#     host compresses it further), so the floor only guards against the
#     fused tier losing its advantage outright.
#
# Each side's rate is its best repetition: run_bench.sh records exec_tier
# with five randomly interleaved repetitions, so both tiers see the same
# spread of host noise and a single slow sample cannot decide the check.
#
# Usage: tools/check_bench_floor.sh [bench-exec-json] [min-speedup] [min-loop]

set -eu

JSON="${1:-build/BENCH_exec.json}"
MIN_SPEEDUP="${2:-1.5}"
MIN_LOOP="${3:-1.1}"

if [ ! -f "${JSON}" ]; then
  echo "error: ${JSON} not found (run tools/run_bench.sh first)" >&2
  exit 1
fi

# The best items_per_second over the benchmark's repetitions (a run
# without --benchmark_repetitions has exactly one); aggregate rows
# (_mean, _median, ...) are skipped.
rate() {
  jq -r --arg name "$1" \
    '[.benchmarks[]
      | select((.run_name // .name) == $name
               and (.run_type // "iteration") == "iteration")
      | .items_per_second] | max // empty' \
    "${JSON}"
}

check() {
  BENCH="$1"
  FLOOR="$2"
  REF=$(rate "${BENCH}/reference")
  FUSED=$(rate "${BENCH}/fused")
  if [ -z "${REF}" ] || [ -z "${FUSED}" ]; then
    echo "error: ${BENCH}/reference or ${BENCH}/fused missing from ${JSON}" >&2
    exit 1
  fi
  SPEEDUP=$(awk -v f="${FUSED}" -v r="${REF}" 'BEGIN { printf "%.2f", f / r }')
  OK=$(awk -v s="${SPEEDUP}" -v m="${FLOOR}" 'BEGIN { print (s >= m) ? 1 : 0 }')
  printf '%s: best reference %.0f tasks/s, best fused %.0f tasks/s -> %sx (floor %sx)\n' \
    "${BENCH}" "${REF}" "${FUSED}" "${SPEEDUP}" "${FLOOR}"
  if [ "${OK}" != "1" ]; then
    echo "error: ${BENCH} fused speedup ${SPEEDUP}x is below the ${FLOOR}x floor" >&2
    exit 1
  fi
}

check BM_TimedRegion "${MIN_SPEEDUP}"
check BM_MsspTier "${MIN_LOOP}"
echo "fused tier floors OK"
