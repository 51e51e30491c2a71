#!/usr/bin/env bash
# Benchmark harness: builds (Release) and runs every per-subsystem
# benchmark binary with --benchmark_format=json, merges the outputs into
# one consolidated snapshot at the repo root:
#
#   BENCH_<rev>.json        rev = short git hash (+ "-dirty" when the tree
#                           has uncommitted changes)
#
# then, when a previous committed snapshot exists, diffs against it with
# scripts/bench_compare.py (warn-only locally; CI's bench-smoke job fails
# on >25% regressions in the named hot benchmarks) and asserts the
# machine-independent intra-snapshot invariant with
# scripts/check_bench_speedup.py (cached Gibbs grid sweep >= 2x the
# uncached one; SIMD kernels >= 1.5x the virtual loop of the loss's custom
# twin on the risk-profile and channel-build hot paths; streamed
# one-example update >= 10x a full recompute at n=1000).
#
# Usage: scripts/run_bench.sh [build_dir]
#   build_dir  CMake build directory (default: build-bench)
#
# Environment:
#   DPLEARN_BENCH_MIN_TIME  forwarded as --benchmark_min_time (seconds as a
#                           plain double, e.g. "0.01" for a schema-only
#                           smoke run — the pinned google-benchmark predates
#                           the "0.01s" suffix syntax)
#   DPLEARN_BENCH_OUT       override the output path (default
#                           BENCH_<rev>.json in the repo root)
#   DPLEARN_BENCH_BASELINE  override the baseline snapshot bench_compare
#                           diffs against (default: newest other BENCH_*.json)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build-bench}"
jobs="$(nproc)"

binaries=(bench_sampling bench_mechanisms bench_gibbs bench_infotheory
          bench_telemetry)

echo "== bench: Release build (${build_dir}) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$jobs" --target "${binaries[@]}" bench_service

rev="$(git rev-parse --short HEAD)"
if ! git diff --quiet HEAD -- 2>/dev/null; then
  rev="${rev}-dirty"
fi
out="${DPLEARN_BENCH_OUT:-BENCH_${rev}.json}"

min_time_flag=()
if [[ -n "${DPLEARN_BENCH_MIN_TIME:-}" ]]; then
  min_time_flag+=("--benchmark_min_time=${DPLEARN_BENCH_MIN_TIME}")
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
parts=()
for bin in "${binaries[@]}"; do
  echo "== bench: running ${bin} =="
  extra_flags=()
  if [[ "$bin" == bench_telemetry ]]; then
    # The telemetry overhead gate compares two benchmarks whose difference
    # is a few percent — single runs flip on machine noise, so this binary
    # reports median-of-5 aggregates and the gate reads the _median entries.
    extra_flags=(--benchmark_repetitions=5 --benchmark_report_aggregates_only=true)
  fi
  "$build_dir/bench/$bin" --benchmark_format=json \
    "${min_time_flag[@]+"${min_time_flag[@]}"}" \
    "${extra_flags[@]+"${extra_flags[@]}"}" >"$tmpdir/$bin.json"
  parts+=("$tmpdir/$bin.json")
done

# The service load generator is not a google-benchmark binary: it drives an
# in-process DpReleaseServer closed-loop and emits bench-schema JSON itself
# (median latency quantiles across repetitions), so its output merges like
# any other part. It also self-checks the service invariants (zero protocol
# errors, clean ReplayVerifyAll, bitwise budget conservation) and exits
# non-zero when one fails — making the bench run a service gate too. Smoke
# min_time runs use --smoke for a token-sized closed loop.
echo "== bench: running bench_service =="
service_flags=()
if [[ -n "${DPLEARN_BENCH_MIN_TIME:-}" ]]; then
  service_flags+=(--smoke)
fi
"$build_dir/bench/bench_service" --out "$tmpdir/bench_service.json" \
  "${service_flags[@]+"${service_flags[@]}"}"
parts+=("$tmpdir/bench_service.json")

python3 scripts/bench_merge.py --rev "$rev" --out "$out" "${parts[@]}"
echo "== bench: wrote $out =="

# Pick the newest OTHER snapshot as the baseline unless told otherwise.
baseline="${DPLEARN_BENCH_BASELINE:-}"
if [[ -z "$baseline" ]]; then
  for candidate in $(ls -t BENCH_*.json 2>/dev/null); do
    if [[ "$candidate" != "$out" ]]; then
      baseline="$candidate"
      break
    fi
  done
fi

if [[ -n "$baseline" && -f "$baseline" ]]; then
  echo "== bench: comparing against $baseline =="
  python3 scripts/bench_compare.py "$baseline" "$out" \
    --threshold "${DPLEARN_BENCH_THRESHOLD:-0.25}" \
    ${DPLEARN_BENCH_STRICT:+--strict}
else
  echo "== bench: no baseline snapshot found; skipping comparison =="
fi

echo "== bench: intra-snapshot speedup gate =="
python3 scripts/check_bench_speedup.py "$out"

# Telemetry overhead budget (<3% on the Gibbs sampling hot path, ISSUE
# target). Both benchmarks run back-to-back in bench_telemetry so the ratio
# is machine-independent. Skipped on DPLEARN_BENCH_MIN_TIME smoke runs:
# 0.01s runs cannot time the pair meaningfully.
if [[ -z "${DPLEARN_BENCH_MIN_TIME:-}" ]]; then
  echo "== bench: telemetry overhead gate =="
  python3 scripts/check_bench_json.py "$out" \
    --overhead-pair BM_GibbsSampleTelemetryOff_median:BM_GibbsSampleTelemetryOn_median \
    --overhead-max "${DPLEARN_BENCH_OVERHEAD_MAX:-0.03}"
else
  echo "== bench: telemetry overhead gate skipped (smoke min_time run) =="
fi
