#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency-
# sensitive tests (observability + parallel engine) again under
# ThreadSanitizer — their fast paths are lock-free atomics and a work
# queue, so data races are the failure mode that matters most.
#
# This script is the exact entrypoint CI runs (see .github/workflows/
# ci.yml); keeping local and CI invocations identical means a green local
# run predicts a green CI run.
#
# Usage: scripts/run_tier1.sh [build_dir] [jobs]
#   build_dir  CMake build directory (default: build); the TSan build goes
#              to <build_dir>-tsan
#   jobs       parallel build/test jobs (default: nproc)
#
# Environment:
#   CMAKE_BUILD_TYPE    forwarded to CMake when set (Debug/Release/...)
#   CC / CXX            respected by CMake as usual
#   DPLEARN_TIER1_TSAN  set to 0 to skip the TSan half (CI's build matrix
#                       does this; a dedicated TSan job covers it)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
jobs="${2:-$(nproc)}"

cmake_flags=()
if [[ -n "${CMAKE_BUILD_TYPE:-}" ]]; then
  cmake_flags+=("-DCMAKE_BUILD_TYPE=${CMAKE_BUILD_TYPE}")
fi

echo "== tier-1: build + ctest (${build_dir}, ${jobs} jobs) =="
cmake -B "$build_dir" -S . "${cmake_flags[@]+"${cmake_flags[@]}"}" >/dev/null
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

if [[ "${DPLEARN_TIER1_TSAN:-1}" != "0" ]]; then
  echo
  echo "== tier-1: concurrency-sensitive tests under ThreadSanitizer =="
  # The set of tests that rerun under TSan is owned by tests/CMakeLists.txt:
  # tests tagged `dplearn_test(name TSAN)` build via the dplearn_tsan_tests
  # aggregate target and carry the ctest label `tsan` — no list lives here.
  cmake -B "${build_dir}-tsan" -S . -DDPLEARN_SANITIZE=thread \
    "${cmake_flags[@]+"${cmake_flags[@]}"}" >/dev/null
  cmake --build "${build_dir}-tsan" -j "$jobs" --target dplearn_tsan_tests
  # DPLEARN_THREADS=8 forces the process-wide pool on so the library's
  # parallel paths (risk profiles, trial engine) run threaded under
  # TSan even on small runners.
  DPLEARN_THREADS=8 DPLEARN_METRICS=1 ctest --test-dir "${build_dir}-tsan" \
    --output-on-failure -j "$jobs" -L '^tsan$'
fi

echo
echo "tier-1: OK"
