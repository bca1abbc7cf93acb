#!/usr/bin/env python
"""Lint: library code must not print or reconfigure process logging.

Walks every module under ``src/repro/`` except ``cli/`` and fails when
it finds a call to ``print(...)`` or ``logging.basicConfig(...)``.
Output belongs to the CLI layer; the library communicates through
return values, exceptions, and the :mod:`repro.obs` recorder — a
library that writes to stdout or mutates the root logger's handlers is
unusable as an embedded component.

AST-based (not grep) so comments, docstrings, and words like
"blueprint" never false-positive.

Usage: ``python scripts/check_clean_logging.py [SRC_DIR]``
Exit code 0 when clean, 1 with one ``file:line`` diagnostic per hit.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages the lint must actually see modules from — a guard against
#: the walk silently missing a layer (e.g. after a package rename).
#: ``service`` matters most: a daemon that prints to stdout corrupts
#: nothing visibly but interleaves garbage into supervisor logs.
#: ``jobs`` is in the same boat — workers run under supervisors too.
REQUIRED_PACKAGES = ("core", "jobs", "obs", "service")


def violations_in(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            found.append((node.lineno, "print() call"))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "basicConfig"
            and isinstance(func.value, ast.Name)
            and func.value.id == "logging"
        ):
            found.append((node.lineno, "logging.basicConfig() call"))
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/repro")
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    status = 0
    checked = 0
    covered_packages: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if "cli" in parts:
            continue  # the CLI layer is allowed to print and configure logging
        checked += 1
        if len(parts) > 1:
            covered_packages.add(parts[0])
        for lineno, message in violations_in(path):
            print(f"{path}:{lineno}: {message}", file=sys.stderr)
            status = 1
    missing = [p for p in REQUIRED_PACKAGES if p not in covered_packages]
    if missing:
        print(
            f"error: lint walked no modules under {root} for required "
            f"package(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            f"clean: no print()/logging.basicConfig in {checked} modules "
            f"({len(covered_packages)} packages)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
