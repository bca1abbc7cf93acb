"""Checks of the trace/metrics smoke, one per subcommand.

Each reads the files an instrumented ``repro analyze`` wrote::

    PYTHONPATH=src python -m repro generate org /tmp/org.json --scale-divisor 200 --seed 7
    PYTHONPATH=src python -m repro analyze /tmp/org.json \\
        --workers 2 --block-rows 64 \\
        --trace-out /tmp/trace.jsonl --metrics-out /tmp/metrics.json \\
        --format json > /tmp/report.json
    python scripts/ci/observability_smoke.py metrics
    python scripts/ci/observability_smoke.py workspace-passes
    PYTHONPATH=src python -m repro analyze /tmp/org.json \\
        --workers 2 --block-rows 64 --format json > /tmp/report-threads.json
    python scripts/ci/observability_smoke.py scan-knobs

``scan-knobs`` compares the metrics run (``--metrics-out`` measures
block memory, so its blocks run one at a time) against the run without
``--metrics-out``, whose blocks run on two threads.  Each check prints
one line and exits non-zero when an assertion fails.
"""

from __future__ import annotations

import argparse
import json


def load(path):
    with open(path) as handle:
        return json.load(handle)


def metrics(args):
    """The metrics export has its schema, and the report carries the
    same counters."""
    metrics = load(args.metrics)
    assert metrics["schema"] == 2, metrics
    for key in ("counters", "timings_seconds", "total_seconds",
                "workers", "histograms"):
        assert key in metrics, f"missing {key}"
    assert "matrix_build" in metrics["timings_seconds"]
    assert metrics["counters"]["cooccurrence.block_peak_bytes"] > 0
    blocks = metrics["histograms"]["cooccurrence.block_seconds"]
    assert blocks["count"] > 0 and blocks["p50"] <= blocks["p99"], blocks
    report = load(args.report)
    assert report["config"]["n_workers"] == 2
    assert report["metrics"]["counters"] == metrics["counters"]
    print("observability smoke ok:",
          metrics["counters"].get("findings"), "findings traced")


def workspace_passes(args):
    """The workspace shares one co-occurrence pass per axis."""
    metrics = load(args.metrics)
    passes = metrics["counters"]["workspace.cooccurrence_passes"]
    assert passes == 2, f"expected one pass per axis, got {passes}"
    assert metrics["counters"]["workspace.artifact_hits"] > 0
    print("workspace smoke ok:", passes, "co-occurrence passes")


def scan_knobs(args):
    """The CLI scan knobs reach the scan: the same blocks run serially
    under ``--metrics-out`` and on threads without it."""
    metrics = load(args.metrics)
    counters = metrics["counters"]
    assert metrics["workers"]["mode"] == "serial", metrics["workers"]
    assert counters["cooccurrence.blocks"] > 2, counters
    threaded = load(args.threaded_report)["metrics"]
    assert threaded["workers"]["mode"] == "parallel", threaded["workers"]
    assert threaded["counters"]["cooccurrence.blocks"] == (
        counters["cooccurrence.blocks"]), threaded["counters"]
    assert not [name for name in threaded["counters"]
                if name.startswith(("shm.", "parallel."))], threaded
    print("scan knob smoke ok:", counters["cooccurrence.blocks"], "blocks")


CHECKS = {
    "metrics": metrics,
    "workspace-passes": workspace_passes,
    "scan-knobs": scan_knobs,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("--metrics", default="/tmp/metrics.json")
    parser.add_argument("--report", default="/tmp/report.json")
    parser.add_argument("--threaded-report", default="/tmp/report-threads.json")
    args = parser.parse_args(argv)
    CHECKS[args.check](args)


if __name__ == "__main__":
    main()
