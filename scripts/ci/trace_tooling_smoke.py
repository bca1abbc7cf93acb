"""Checks of the trace tooling smoke, one per subcommand.

Each reads one JSON document on stdin::

    PYTHONPATH=src python -m repro trace summarize /tmp/parallel.jsonl --json \\
        | python scripts/ci/trace_tooling_smoke.py summarize
    PYTHONPATH=src python -m repro trace diff /tmp/serial.jsonl /tmp/parallel.jsonl --json \\
        | python scripts/ci/trace_tooling_smoke.py diff
    curl -fsS 'http://127.0.0.1:8037/tracez?k=3' \\
        | python scripts/ci/trace_tooling_smoke.py tracez

Each check prints one line and exits non-zero when an assertion fails.
"""

from __future__ import annotations

import argparse
import json
import sys


def summarize(doc):
    """The summary has no orphan spans and a critical path."""
    assert doc["orphan_spans"] == 0, doc
    assert doc["per_trace"][0]["critical_path"], doc
    print("summarize ok:", doc["spans"], "spans, 0 orphans")


def diff(rows):
    """The diff compares the root span of both traces."""
    names = {row["name"] for row in rows}
    assert "engine.analyze" in names, names
    print("diff ok:", len(rows), "span names compared")


def tracez(doc):
    """The live service retains slow traces, each with its trace id."""
    assert doc["traces"], doc
    assert all(t["trace_id"] for t in doc["traces"])
    print("tracez ok:", len(doc["traces"]), "slow traces retained")


CHECKS = {
    "summarize": summarize,
    "diff": diff,
    "tracez": tracez,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    args = parser.parse_args(argv)
    CHECKS[args.check](json.load(sys.stdin))


if __name__ == "__main__":
    main()
