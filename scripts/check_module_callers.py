#!/usr/bin/env python3
"""Fail when a library module has no caller outside its own files and tests.

Usage: check_module_callers.py [REPO_ROOT]

A module is a header under src/ (src/<dir>/<name>.h). It has a caller when
some file under src/, bench/, examples/ or perfbench/ other than its own
src/<dir>/<name>.cc includes it as "<dir>/<name>.h". Tests do not count:
a module that only its tests include is dead weight, so it either gets a
caller (an experiment verdict, an example, a served path) or goes.

src/proptest/ is exempt: it is the property-test engine, and tests are its
only intended callers.

Prints each module without a caller and exits 1 if there is any.
"""

import pathlib
import re
import sys

CALLER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}
EXEMPT_PREFIXES = ("proptest/",)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
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


if __name__ == "__main__":
    sys.exit(main())
