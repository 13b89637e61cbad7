#!/bin/sh
# The repo's sanitizer gate: builds and runs the test suite under the
# address and undefined-behaviour sanitizers (the hardening proof
# obligation — the fault-injection sweep's out-of-bounds claims are only
# mechanically checked here; UBSAN_OPTIONS turns any undefined-behaviour
# report into a failed test instead of a line of stderr) and,
# optionally, the thread sanitizer (the parallel driver's race-freedom
# proof). Separate build trees keep the sanitized objects out of the
# normal build.
#
# usage: tools/check.sh [asan|tsan|all]   (default: asan)
#
# The ASan+UBSan pass runs the full suite; the TSan pass runs the driver,
# fault-injection, profile-repository, observability, and optimizer
# tests, which exercise every concurrent component (worker pool, run
# cache, parallel artifact merge, per-thread obs ring buffers, and the
# benches' Build closures optimizing modules on worker threads).

set -e

MODE=${1:-asan}
JOBS=$(nproc 2>/dev/null || echo 4)

run_asan() {
  echo "== check.sh: address+undefined-sanitizer pass ==" >&2
  cmake -B build-asan -S . -DPP_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS"
  (cd build-asan &&
     UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
     ctest --output-on-failure -j "$JOBS")
}

run_tsan() {
  echo "== check.sh: thread-sanitizer pass ==" >&2
  cmake -B build-tsan -S . -DPP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target driver_test \
        --target fault_injection_test --target profdb_test \
        --target obs_test --target collectd_test --target wire_test \
        --target server_test --target opt_test \
        --target pgo_differential_test --target kpath_numbering_test
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" \
        -R 'DriverTest|RunKeyTest|RunRecordTest|SchedulerTest|Fault|ProfDb|Obs|Collectd|Wire|Server|Opt|Pgo|KPath|NumberingQueries')
}

case "$MODE" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *)
    echo "usage: tools/check.sh [asan|tsan|all]" >&2
    exit 2
    ;;
esac

echo "check.sh: $MODE pass clean" >&2
