#!/usr/bin/env python3
"""Assert the intra-snapshot speedup invariants of a BENCH_*.json.

Usage: check_bench_speedup.py SNAPSHOT
       check_bench_speedup.py --self-test

Each gate compares two benchmarks that ran the same work with a feature
off and on, in the same process on the same machine — so their real_time
ratio is a machine-independent architecture claim, not a timing comparison
across runs:

  * The Gibbs grid-sweep pair (cache off/on) must show >= 2x: anything
    less means the risk-profile cache stopped being hit on the sweep path
    (the PR-4 acceptance criterion).
  * The SIMD pairs (the risk profile and the cold channel build, each on
    a custom twin of the clipped squared loss, which runs the virtual
    loop, and on the loss itself, which runs the kernel) must show
    >= 1.5x: anything less means the vectorized kernels stopped being
    dispatched on the hot paths (the SIMD PR's acceptance criterion).
  * The streaming pair (full recompute vs delta update at n=1000) must
    show >= 10x: anything less means a streamed one-example turnover is
    no longer O(|Theta|) — the streaming PR's acceptance criterion.

Failure modes are all loud and named: a gated benchmark missing from the
snapshot, an entry without a usable real_time, or a ratio below its floor
each name the offending benchmark and exit non-zero — never a raw
traceback, never a silent pass. `--self-test` replays those failure modes
against synthetic snapshots (run from CI's bench-smoke job and ctest).
"""

import argparse
import json
import sys

# (slow benchmark, fast benchmark, minimum slow/fast ratio, failure hint)
GATES = [
    ("BM_GibbsGridSweepUncached", "BM_GibbsGridSweepCached", 2.0,
     "the risk-profile cache is not being hit on the sweep path"),
    ("BM_EmpiricalRiskProfileScalar/201", "BM_EmpiricalRiskProfile/201", 1.5,
     "the clipped squared loss's profile is not faster through the SIMD "
     "mean-loss kernel than its custom twin's virtual loop"),
    ("BM_ChannelConstructionScalar/200", "BM_ChannelConstruction/200", 1.5,
     "the clipped squared loss's channel build is not faster through the "
     "SIMD kernels than its custom twin's virtual loop"),
    ("BM_StreamingVsFullRecompute", "BM_StreamingUpdate", 10.0,
     "a streamed one-example update is no longer O(|Theta|) cheaper than a "
     "full |Theta|*n recompute"),
]


def evaluate(snapshot, gates, source="<snapshot>"):
    """Checks every gate against a parsed snapshot dict.

    Returns (ok, lines, errors): `lines` are the per-gate ratio reports,
    `errors` the named failures. Never raises on malformed input — a gated
    benchmark with a missing/non-numeric real_time is a named error, and
    un-gated malformed entries are ignored.
    """
    lines, errors = [], []
    wanted = {name for gate in gates for name in gate[:2]}
    times = {}
    for entry in snapshot.get("benchmarks", []):
        if not isinstance(entry, dict) or entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name")
        if name not in wanted:
            continue
        try:
            times[name] = float(entry["real_time"])
        except (KeyError, TypeError, ValueError):
            errors.append(f"benchmark {name!r} in {source} has no usable "
                          f"real_time (got {entry.get('real_time')!r})")

    missing = sorted(wanted - set(times))
    for name in missing:
        if not any(name in error for error in errors):
            errors.append(f"gated benchmark {name!r} is missing from {source}")
    if missing:
        return False, lines, errors

    ok = True
    for slow, fast, min_ratio, hint in gates:
        if times[fast] <= 0.0:
            errors.append(f"non-positive real_time for {fast!r} in {source}")
            ok = False
            continue
        ratio = times[slow] / times[fast]
        lines.append(f"{slow} {times[slow]:.1f} / {fast} {times[fast]:.1f} = "
                     f"{ratio:.2f}x (require >= {min_ratio:.2f}x)")
        if ratio < min_ratio:
            errors.append(f"{slow} vs {fast} below {min_ratio:.2f}x — {hint}")
            ok = False
    return ok, lines, errors


def self_test():
    """Replays every failure mode on synthetic snapshots."""
    def bench(name, real_time):
        return {"name": name, "real_time": real_time, "run_type": "iteration"}

    gates = [("BM_Slow", "BM_Fast", 2.0, "the feature stopped helping")]
    healthy = {"benchmarks": [bench("BM_Slow", 100.0), bench("BM_Fast", 10.0)]}
    cases = [
        ("healthy snapshot passes", healthy, True, None),
        ("missing fast benchmark is a named failure",
         {"benchmarks": [bench("BM_Slow", 100.0)]}, False, "BM_Fast"),
        ("empty snapshot names every gated benchmark",
         {"benchmarks": []}, False, "BM_Slow"),
        ("entry without real_time is a named failure",
         {"benchmarks": [bench("BM_Slow", 100.0),
                         {"name": "BM_Fast", "run_type": "iteration"}]},
         False, "BM_Fast"),
        ("non-numeric real_time is a named failure",
         {"benchmarks": [bench("BM_Slow", 100.0), bench("BM_Fast", "oops")]},
         False, "BM_Fast"),
        ("ratio below the floor fails with the hint",
         {"benchmarks": [bench("BM_Slow", 15.0), bench("BM_Fast", 10.0)]},
         False, "stopped helping"),
        ("non-positive fast time is a named failure",
         {"benchmarks": [bench("BM_Slow", 100.0), bench("BM_Fast", 0.0)]},
         False, "BM_Fast"),
        ("aggregate entries are ignored",
         {"benchmarks": [bench("BM_Slow", 100.0), bench("BM_Fast", 10.0),
                         dict(bench("BM_Fast", 1e9), run_type="aggregate")]},
         True, None),
    ]
    failures = 0
    for label, snapshot, expect_ok, expect_fragment in cases:
        ok, _, errors = evaluate(snapshot, gates, source="<self-test>")
        problems = []
        if ok != expect_ok:
            problems.append(f"expected ok={expect_ok}, got ok={ok}")
        if expect_fragment is not None and \
                not any(expect_fragment in error for error in errors):
            problems.append(f"no error names {expect_fragment!r}: {errors}")
        if ok and errors:
            problems.append(f"passing case produced errors: {errors}")
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"check_bench_speedup --self-test: {label}: {status}")
        failures += bool(problems)

    # The real GATES table must be well-formed: distinct benchmark pairs,
    # positive floors — catches a bad edit to the table itself.
    for slow, fast, min_ratio, hint in GATES:
        if slow == fast or min_ratio <= 0.0 or not hint:
            print(f"check_bench_speedup --self-test: malformed gate "
                  f"({slow!r}, {fast!r}, {min_ratio}, {hint!r})")
            failures += 1
    print(f"check_bench_speedup --self-test: "
          f"{'PASS' if failures == 0 else f'{failures} case(s) FAILED'}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshot", nargs="?")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate logic against synthetic "
                             "snapshots and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.snapshot is None:
        parser.error("snapshot path required (or use --self-test)")

    try:
        with open(args.snapshot, "r", encoding="utf-8") as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_bench_speedup: cannot read snapshot {args.snapshot}: "
              f"{error}", file=sys.stderr)
        return 1
    if not isinstance(snapshot, dict):
        print(f"check_bench_speedup: snapshot {args.snapshot} is not a JSON "
              f"object", file=sys.stderr)
        return 1

    ok, lines, errors = evaluate(snapshot, GATES, source=args.snapshot)
    for line in lines:
        print(f"check_bench_speedup: {line}")
    for error in errors:
        print(f"check_bench_speedup: {error}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
