#!/usr/bin/env python3
"""Fail when library code has no caller outside its own files and tests.

Usage:
  check_module_callers.py [REPO_ROOT]
      Header pass (no build needed).
  check_module_callers.py --functions BUILD_DIR [REPO_ROOT]
      Function pass: builds under BUILD_DIR, then checks symbols.
  check_module_callers.py --self-test
      Runs the function pass's checks on synthetic `nm -C` tables.

Header pass. A module is a header under src/ (src/<dir>/<name>.h). It has a
caller when some file under src/, bench/, examples/ or perfbench/ other than
its own src/<dir>/<name>.cc includes it as "<dir>/<name>.h".

Function pass. Builds every binary that is not a test -- the experiments
and bench_* binaries (bench/), the examples, and the perfbench program
(through `cmake -S perfbench`, with flags only) -- at
`-O1 -fno-inline -ffunction-sections`, linked with `-Wl,--gc-sections`, so
a binary keeps exactly the functions reachable from its entry points. Each
out-of-line function a src/ library defines (a global text symbol in
namespace dplearn) that no such binary keeps is flagged, unless it is a
destructor, a copy or move constructor, a default constructor or an
assignment operator, or has an ALLOWLIST entry. Only the libraries and
binaries of targets the current configure defines are read, so the leftover
binary of a removed target in a reused BUILD_DIR hides no orphan.
Symbols, unlike names, tell `Dataset::Split` from `Rng::Split`, and a
function whose only caller is itself dead is dropped with it. `-O0` would
not do: without __OPTIMIZE__ the perfbench program compiles to a stub.

Tests do not count as callers in either pass: code that only its tests
reach is dead weight, so it either gets a caller (an experiment verdict, an
example, a served path) or goes. src/proptest/ is exempt from both: it is
the property-test engine, and tests are its only intended callers.

Each pass prints every finding and exits 1 if there is any.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

CALLER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}
EXEMPT_PREFIXES = ("proptest/",)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

SCAN_CXX_FLAGS = "-O1 -fno-inline -ffunction-sections -DNDEBUG"
SCAN_LINK_FLAGS = "-Wl,--gc-sections"
BINARY_DIRS = ("bench", "examples")
PERFBENCH_TARGET = "dplearn_perfbench"

# The four reasons a library function may have no caller in the binaries.
DEFERRED = "deferred to ROADMAP item 5 or 6, which may call it"
REFERENCE = "a reference or fixture that other test suites use"
FAULT_API = "the test-facing API of fault injection"
TEST_SEAM = "a test seam, the only way a remaining test observes a behaviour"
REASONS = (DEFERRED, REFERENCE, FAULT_API, TEST_SEAM)

# Qualified function name (no parameters) -> (reason, who needs it). An
# entry covers the overloads of that one name, never other members of its
# class.
ALLOWLIST = {
    "dplearn::SampledAuditPair":
        (DEFERRED, "item 5(c) folds it into the one empirical auditor"),
    "dplearn::SimulatedMembershipAttack":
        (DEFERRED, "item 5(c) folds it into the one empirical auditor"),
    "dplearn::MeasuredSensitivity":
        (DEFERRED, "README and TUTORIAL §2 audit a claimed sensitivity with "
                   "it; item 5 generalizes that audit"),
    "dplearn::GeometricMechanism::Create":
        (DEFERRED, "item 6's exact samplers"),
    "dplearn::GeometricMechanism::Release":
        (DEFERRED, "item 6's exact samplers"),
    "dplearn::GeometricMechanism::OutputProbability":
        (DEFERRED, "item 6's exact samplers"),
    "dplearn::GeometricMechanism::NoiseTailProbability":
        (DEFERRED, "item 6's exact samplers"),
    "dplearn::localdp::LocalChannel::SelfAuditPair":
        (DEFERRED, "item 5's black-box audit of the local channels"),
    "dplearn::localdp::LocalChannel::LogLikelihoodRatio":
        (DEFERRED, "item 5's black-box audit of the local channels"),
    "dplearn::RandomizedResponse::ReportOneProbability":
        (REFERENCE, "the exact-ratio privacy tests of randomized response, "
                    "which E7 uses"),
    "dplearn::RenyiDivergence":
        (REFERENCE, "the geometric mechanism's RDP property"),
    "dplearn::BinaryEntropy":
        (REFERENCE, "the closed form of BSC capacity in the channel suites"),
    "dplearn::DiscreteChannel::OutputDistribution":
        (REFERENCE, "the data-processing property of proptest_infotheory"),
    "dplearn::JointDistribution::Create":
        (REFERENCE, "the dense joint of the MI, regression and property "
                    "suites"),
    "dplearn::LinearRegressionTask::Create":
        (REFERENCE, "the multi-dimensional data of the SIMD and streaming "
                    "equivalence suites"),
    "dplearn::LinearRegressionTask::Sample":
        (REFERENCE, "the multi-dimensional data of the SIMD and streaming "
                    "equivalence suites"),
    "dplearn::SampleUniform":
        (REFERENCE, "draws LinearRegressionTask's features"),
    "dplearn::ClipFeatureNorm":
        (REFERENCE, "bounds the features of the DP-SGD, local-DP and "
                    "federated suites"),
    "dplearn::ToCsv":
        (REFERENCE, "the round-trip reference of the CSV suites"),
    "dplearn::ApproxEqual":
        (REFERENCE, "the tolerance compare of the property suites"),
    "dplearn::Normalize":
        (REFERENCE, "builds the distributions of the property suites"),
    "dplearn::Rng::Split":
        (REFERENCE, "the stream-independence tests of the RNG and the "
                    "trial runner"),
    "dplearn::BudgetAuditLog::ToJson":
        (REFERENCE, "service_determinism_test compares ledgers with it"),
    "dplearn::service::ShardedPrivacyAccountant::audit_log":
        (REFERENCE, "service_determinism_test compares ledgers with it"),
    "dplearn::robustness::ScopedFailPoint::ScopedFailPoint":
        (FAULT_API, "arms a fail point for one test scope"),
    "dplearn::robustness::FailPointRegistry::Clear":
        (FAULT_API, "disarms one fail point"),
    "dplearn::robustness::FailPointRegistry::ClearAll":
        (FAULT_API, "disarms every fail point between tests"),
    "dplearn::robustness::FailPointRegistry::Stats":
        (FAULT_API, "per-fail-point hit and fire counts"),
    "dplearn::parallel::ThreadPool::QueueDepth":
        (TEST_SEAM, "the pool's queue drains"),
    "dplearn::obs::TraceSpan::CurrentDepth":
        (TEST_SEAM, "the per-thread span stack and its adoption across "
                    "the pool"),
    "dplearn::obs::TraceSpan::CurrentName":
        (TEST_SEAM, "the per-thread span stack and its adoption across "
                    "the pool"),
    "dplearn::obs::GetTraceBufferStats":
        (TEST_SEAM, "span-ring overflow is counted, not lost silently"),
    "dplearn::obs::MetricsRegistry::ResetAll":
        (TEST_SEAM, "isolates the metric assertions of each test"),
    "dplearn::obs::InMemorySink::Clear":
        (TEST_SEAM, "isolates the event assertions of each test"),
    "dplearn::obs::InMemorySink::size":
        (TEST_SEAM, "counts events without copying them out"),
    "dplearn::obs::TelemetryReporter::running":
        (TEST_SEAM, "the reporter's start and stop"),
    "dplearn::obs::TelemetryReporter::flush_count":
        (TEST_SEAM, "the reporter's periodic flush"),
    "dplearn::perf::RiskProfileCache::size":
        (TEST_SEAM, "the cache's capacity bound and eviction"),
}


def header_pass(root: pathlib.Path) -> int:
    src = root / "src"
    if not src.is_dir():
        print(f"check_module_callers: no src/ under {root}", file=sys.stderr)
        return 2

    includers: dict[str, set[pathlib.Path]] = {}
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for included in INCLUDE_RE.findall(text):
                includers.setdefault(included, set()).add(path)

    orphans = []
    for header in sorted(src.rglob("*.h")):
        module = header.relative_to(src).as_posix()
        if module.startswith(EXEMPT_PREFIXES):
            continue
        own_files = {header, header.with_suffix(".cc")}
        if not includers.get(module, set()) - own_files:
            orphans.append(module)

    for module in orphans:
        print(f"src/{module}: included by nothing in {', '.join(CALLER_DIRS)} "
              "but its own .cc; give it a caller or delete it")
    if orphans:
        return 1
    print("check_module_callers: every module under src/ has a caller")
    return 0


def parse_nm(text: str, kinds: str) -> set[str]:
    """Demangled names of the `nm -C` lines whose symbol type is in kinds."""
    names = set()
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(re.sub(r" \[clone [^\]]*\]", "", parts[2]))
    return names


def split_symbol(symbol: str) -> tuple[str, str]:
    """Splits a demangled function into (qualified name, parameter list)."""
    angle = 0
    i = 0
    while i < len(symbol):
        if symbol.startswith("operator", i) and (i == 0 or symbol[i - 1] == ":"):
            i += len("operator")
            if symbol.startswith("()", i):
                i += 2
            while i < len(symbol) and symbol[i] != "(":
                i += 1
            break
        c = symbol[i]
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "(" and angle == 0:
            break
        i += 1
    depth, end = 0, i
    for end in range(i, len(symbol)):
        depth += {"(": 1, ")": -1}.get(symbol[end], 0)
        if depth == 0:
            break
    return symbol[:i].replace("[abi:cxx11]", ""), symbol[i + 1:end]


def is_special_member(symbol: str) -> bool:
    """Destructors, default/copy/move constructors and assignments."""
    name, params = split_symbol(symbol)
    scope, _, member = name.rpartition("::")
    cls = re.sub(r"<.*>$", "", scope.rpartition("::")[2])
    if member == "~" + cls or member == "operator=":
        return True
    if member != cls:
        return False
    return params in ("", f"{scope} const&", f"{scope}&&")


def find_orphans(library: dict[str, set[str]], kept: set[str],
                 allowlist: dict) -> tuple[list[str], list[str]]:
    """Returns (findings for uncalled functions, findings for bad entries).

    `library` maps each src/ library to the `nm -C` names of its global
    text symbols; `kept` holds every symbol name the binaries keep.
    """
    orphans, allowed = [], set()
    for lib, symbols in sorted(library.items()):
        for symbol in sorted(symbols):
            if not symbol.startswith("dplearn::") or symbol in kept or \
                    is_special_member(symbol):
                continue
            name = split_symbol(symbol)[0]
            if name in allowlist:
                allowed.add(name)
            else:
                orphans.append(f"{lib}: {symbol}: kept by no experiment, "
                               "bench, example or perfbench binary; give it "
                               "a caller, delete it, or allowlist it with a "
                               "reason")
    names = {split_symbol(s)[0] for symbols in library.values()
             for s in symbols}
    stale = []
    for entry, (reason, _) in sorted(allowlist.items()):
        if reason not in REASONS:
            stale.append(f"allowlist entry {entry}: reason {reason!r} is "
                         "not one of the four")
        elif entry not in names:
            stale.append(f"allowlist entry {entry}: names no library "
                         "symbol; delete the entry")
        elif entry not in allowed:
            stale.append(f"allowlist entry {entry}: a binary now keeps it; "
                         "delete the entry")
    return orphans, stale


def nm(path: pathlib.Path) -> str:
    return subprocess.run(["nm", "-C", "--defined-only", str(path)],
                          check=True, capture_output=True, text=True).stdout


def make_targets(directory: pathlib.Path) -> set[str]:
    """The targets the current configure defines in one build directory."""
    text = subprocess.run(["make", "-s", "-C", str(directory), "help"],
                          check=True, capture_output=True, text=True).stdout
    return {line.split()[1] for line in text.splitlines()
            if line.startswith("... ")}


def build(root: pathlib.Path, out: pathlib.Path) -> None:
    flags = ["-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_CXX_FLAGS_RELEASE={SCAN_CXX_FLAGS}",
             f"-DCMAKE_EXE_LINKER_FLAGS={SCAN_LINK_FLAGS}"]

    jobs = f"-j{os.cpu_count() or 1}"

    def run(*cmd):
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)

    run("cmake", "-S", str(root), "-B", str(out / "main"), *flags)
    for top in BINARY_DIRS:
        run("make", "-C", str(out / "main" / top), jobs, "all")
    run("cmake", "-S", str(root / "perfbench"), "-B", str(out / "perfbench"),
        *flags)
    run("make", "-C", str(out / "perfbench"), jobs, PERFBENCH_TARGET)


def function_pass(root: pathlib.Path, out: pathlib.Path) -> int:
    try:
        build(root, out)
        targets = make_targets(out / "main")
        binary_targets = {top: make_targets(out / "main" / top)
                          for top in BINARY_DIRS}
    except subprocess.CalledProcessError as error:
        print(f"check_module_callers: build step failed: {' '.join(error.cmd)}",
              file=sys.stderr)
        return 2
    library = {}
    for archive in sorted((out / "main" / "src").glob("*/libdplearn_*.a")):
        module = archive.parent.name
        if archive.stem.removeprefix("lib") in targets and \
                module + "/" not in EXEMPT_PREFIXES:
            library[f"src/{module}"] = parse_nm(nm(archive), "T")
    binaries = [out / "perfbench" / PERFBENCH_TARGET]
    for top, names in binary_targets.items():
        binaries += [p for p in (out / "main" / top / n for n in sorted(names))
                     if p.is_file()]
    kept = set()
    for binary in binaries:
        kept |= parse_nm(nm(binary), "TtWw")

    orphans, stale = find_orphans(library, kept, ALLOWLIST)
    for finding in orphans + stale:
        print(finding)
    if orphans or stale:
        return 1
    print(f"check_module_callers: every src/ function is kept by one of "
          f"{len(binaries)} binaries or allowlisted ({len(ALLOWLIST)} entries)")
    return 0


def self_test() -> int:
    """Replays the function pass's checks on synthetic `nm -C` tables."""
    library = parse_nm("\n".join([
        "0000000000000000 T dplearn::Kept(double)",
        "0000000000000010 T dplearn::Orphan(std::vector<double, "
        "std::allocator<double> > const&)",
        "0000000000000020 T dplearn::Allowed(int)",
        "0000000000000030 T dplearn::Allowed(double)",
        "0000000000000040 T dplearn::Widget::~Widget()",
        "0000000000000050 T dplearn::Widget::Widget()",
        "0000000000000060 T dplearn::Widget::Widget(dplearn::Widget const&)",
        "0000000000000070 T dplearn::Widget::Widget(dplearn::Widget&&)",
        "0000000000000080 T dplearn::Widget::operator=(dplearn::Widget&&)",
        "0000000000000090 T dplearn::Widget::Widget(int)",
        "00000000000000a0 T dplearn::Widget::Use(std::function<double "
        "(dplearn::Widget const&)> const&) const",
        "00000000000000b0 T dplearn::Widget::Name[abi:cxx11]() const",
        "00000000000000c0 W dplearn::Inline()",
        "00000000000000d0 t dplearn::(anonymous namespace)::Local()",
        "00000000000000e0 T dplearn::Split() [clone .constprop.0]",
        "00000000000000f0 T operator<<(std::ostream&, dplearn::Widget const&)",
    ]), "T")
    kept = parse_nm("\n".join([
        "0000000000401000 T main",
        "0000000000401010 T dplearn::Kept(double)",
        "0000000000401020 t dplearn::Split()",
    ]), "TtWw")
    allowed = {"dplearn::Allowed": (REFERENCE, "synthetic")}
    cases = [
        ("an orphan is named", allowed, "dplearn::Orphan(std::vector", True),
        ("an allowlisted symbol is not named, in every overload", allowed,
         "dplearn::Allowed", False),
        ("a kept symbol is not named", allowed, "dplearn::Kept", False),
        ("a kept clone counts as its function", allowed, "dplearn::Split",
         False),
        ("destructors are skipped", allowed, "~Widget", False),
        ("default constructors are skipped", allowed, "Widget::Widget()",
         False),
        ("copy and move constructors are skipped", allowed,
         "Widget::Widget(dplearn::Widget", False),
        ("assignment operators are skipped", allowed, "operator=", False),
        ("an ordinary constructor is named",
         dict(allowed, **{"dplearn::Widget::Use": (TEST_SEAM, "synthetic")}),
         "dplearn::Widget::Widget(int)", True),
        ("allowlisting a member does not cover its class",
         dict(allowed, **{"dplearn::Widget::Widget": (TEST_SEAM, "synthetic")}),
         "dplearn::Widget::Use(", True),
        ("an entry that names no library symbol fails",
         dict(allowed, **{"dplearn::Gone": (REFERENCE, "synthetic")}),
         "allowlist entry dplearn::Gone: names no library symbol", True),
        ("an entry for a kept symbol fails",
         dict(allowed, **{"dplearn::Kept": (REFERENCE, "synthetic")}),
         "allowlist entry dplearn::Kept: a binary now keeps it", True),
        ("an entry without one of the four reasons fails",
         {"dplearn::Allowed": ("handy", "synthetic")},
         "reason 'handy' is not one of the four", True),
        ("weak symbols are not checked", allowed, "Inline", False),
        ("local symbols are not checked", allowed, "Local", False),
        ("symbols outside dplearn are not checked", allowed, "operator<<",
         False),
        ("findings name the library", allowed, "src/util: dplearn::Orphan",
         True),
    ]
    failures = 0
    for label, allowlist, fragment, expect_named in cases:
        orphans, stale = find_orphans({"src/util": library}, kept, allowlist)
        findings = orphans + stale
        ok = any(fragment in finding for finding in findings) == expect_named
        print(f"check_module_callers --self-test: {label}: "
              f"{'ok' if ok else 'FAIL ' + repr(findings)}")
        failures += not ok
    for entry, (reason, why) in sorted(ALLOWLIST.items()):
        if reason not in REASONS or not why or "(" in entry:
            print(f"check_module_callers --self-test: malformed allowlist "
                  f"entry {entry!r}")
            failures += 1
    print(f"check_module_callers --self-test: "
          f"{'PASS' if failures == 0 else f'{failures} case(s) FAILED'}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("root", nargs="?", default=".")
    parser.add_argument("--functions", metavar="BUILD_DIR",
                        help="run the function pass, building under BUILD_DIR")
    parser.add_argument("--self-test", action="store_true",
                        help="check the function pass on synthetic tables")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = pathlib.Path(args.root).resolve()
    if args.functions:
        return function_pass(root, pathlib.Path(args.functions).resolve())
    return header_pass(root)


if __name__ == "__main__":
    sys.exit(main())
