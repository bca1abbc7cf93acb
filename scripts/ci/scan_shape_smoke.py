"""Checks of the scan-shape parity smoke, one per subcommand.

``report-parity`` reads the reports of one dataset analysed under every
worker x block-rows shape; ``bench-schema`` reads a quick co-occurrence
benchmark run and the checked-in artifact::

    PYTHONPATH=src python -m repro generate org /tmp/org.json --scale-divisor 200 --seed 7
    PYTHONPATH=src python -m repro analyze /tmp/org.json --workers 1 \\
        --format json > /tmp/report-1-none.json
    PYTHONPATH=src python -m repro analyze /tmp/org.json --workers 1 \\
        --block-rows 64 --format json > /tmp/report-1-64.json
    # ... and the same two with --workers 2
    python scripts/ci/scan_shape_smoke.py report-parity
    PYTHONPATH=src python scripts/bench_cooccurrence.py --quick --out /tmp/bench.json
    python scripts/ci/scan_shape_smoke.py bench-schema

Each check prints what it verified and exits non-zero when an
assertion fails.
"""

from __future__ import annotations

import argparse
import json

WORKERS = (1, 2)
BLOCK_ROWS = ("none", "64")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def normalized(path):
    """The report without its config echo and run-specific timings and
    metrics."""
    payload = load(path)
    for key in ("config", "timings_seconds", "total_seconds", "metrics"):
        payload.pop(key)
    return json.dumps(payload, sort_keys=True)


def report_parity(args):
    """The scan shape changes how the product runs, never what it finds:
    reports must be identical at 1 and 2 workers, monolithic and
    blocked."""
    reports = {
        (workers, rows): normalized(
            f"{args.reports_dir}/report-{workers}-{rows}.json"
        )
        for workers in WORKERS
        for rows in BLOCK_ROWS
    }
    reference = reports[(1, "none")]
    for key, report in reports.items():
        assert report == reference, f"report mismatch for {key}"
    print("scan shape parity ok:", len(reports), "identical reports")


def bench_schema(args):
    """Both benchmark documents have the schema, and the checked-in
    artifact (two usable CPUs) shows two threads beating one on the
    same blocks."""
    for path in (args.fresh, args.checked_in):
        doc = load(path)
        assert doc["schema_version"] == 2, (path, doc.get("schema_version"))
        assert doc["environment"].keys() >= {
            "python", "numpy", "scipy", "usable_cpus"}
        assert doc["serial_sparse"], path
        for row in doc["serial_sparse"]:
            assert row.keys() >= {"density", "nnz", "seconds"}, (path, row)
        threads = doc["threads"]
        assert threads["n_blocks"] > 1, (path, threads)
        assert threads["seconds"].keys() == {"1", "2"}, (path, threads)
        print(f"bench schema ok: {path}")
    seconds = load(args.checked_in)["threads"]["seconds"]
    assert seconds["2"] < seconds["1"], seconds
    print("bench trends ok")


CHECKS = {
    "report-parity": report_parity,
    "bench-schema": bench_schema,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("--reports-dir", default="/tmp")
    parser.add_argument("--fresh", default="/tmp/bench.json")
    parser.add_argument("--checked-in", default="BENCH_cooccurrence.json")
    args = parser.parse_args(argv)
    CHECKS[args.check](args)


if __name__ == "__main__":
    main()
