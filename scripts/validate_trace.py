#!/usr/bin/env python
"""Validate JSONL trace files against the documented schema.

Thin CLI wrapper over :func:`repro.obs.validate_trace_file` (the real
implementation, shared with the test suite).  Used by CI's observability
smoke job against an actual ``repro analyze --trace-out`` run.

Accepts schema 2 only: pre-order ``path``/``depth`` spans with
``trace_id`` on every event plus ``span_id``/``parent_id`` links, which
are checked for integrity — unique pre-order IDs, parent links resolving
to an earlier span at the parent depth, no dangling spans.  Failures
print the offending line number and rule.

Usage: ``python scripts/validate_trace.py TRACE.jsonl [TRACE2.jsonl ...]``
Exit code 0 when every file conforms, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import TraceSchemaError, validate_trace_file  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: validate_trace.py TRACE.jsonl [...]", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        try:
            summary = validate_trace_file(path)
        except (TraceSchemaError, OSError) as error:
            print(f"{path}: INVALID — {error}", file=sys.stderr)
            status = 1
        else:
            print(
                f"{path}: ok ({summary['traces']} traces, "
                f"{summary['spans']} spans)"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
